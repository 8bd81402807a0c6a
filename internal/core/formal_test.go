package core

import (
	"strconv"
	"strings"
	"testing"

	"compact/internal/bench"
	"compact/internal/labeling"
	"compact/internal/logic"
	"compact/internal/partition"
	"compact/internal/xbar"
	"compact/internal/xbar3d"
)

// witnessOf parses the input assignment a failed proof reports
// ("… e.g. on input [true false …]").
func witnessOf(t *testing.T, err error) []bool {
	t.Helper()
	msg := err.Error()
	i, j := strings.LastIndex(msg, "["), strings.LastIndex(msg, "]")
	if i < 0 || j < i {
		t.Fatalf("proof error carries no witness: %v", err)
	}
	var w []bool
	for _, f := range strings.Fields(msg[i+1 : j]) {
		b, perr := strconv.ParseBool(f)
		if perr != nil {
			t.Fatalf("bad witness in %q: %v", msg, perr)
		}
		w = append(w, b)
	}
	return w
}

// flipFirstLit complements, in place, the first literal cell of a plane.
func flipFirstLit(t *testing.T, p xbar.Plane) {
	t.Helper()
	if lits, _ := p.Counts(); lits == 0 {
		t.Fatal("no literal cell to flip")
	}
	corruptPlanes([]xbar.Plane{p})
}

// clone2D deep-copies a design (a design's wire graph is compiled on first
// use, so mutants must be fresh designs).
func clone2D(t *testing.T, d *xbar.Design) *xbar.Design {
	t.Helper()
	c, err := d.UnderDefects(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// disagrees reports whether two output vectors differ anywhere.
func disagrees(got, want []bool) bool {
	for o := range want {
		if got[o] != want[o] {
			return true
		}
	}
	return false
}

// TestFormalVerifyMutants flips one literal cell of a proven design in
// each of the three shapes the proof covers — a 2D design with 60 inputs,
// a K=3 stack with more than 20 inputs and a partition plan — and checks
// that the proof fails with a witness the scalar evaluator confirms.
func TestFormalVerifyMutants(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes router twice")
	}
	router := bench.MustBuild("router")
	check := func(shape string, nw *logic.Network, err error, eval func([]bool) ([]bool, error)) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: mutant passed the proof", shape)
		}
		w := witnessOf(t, err)
		if len(w) != nw.NumInputs() {
			t.Fatalf("%s: witness has %d inputs, network %d", shape, len(w), nw.NumInputs())
		}
		got, eerr := eval(w)
		if eerr != nil {
			t.Fatalf("%s: evaluating the witness: %v", shape, eerr)
		}
		if !disagrees(got, nw.Eval(w)) {
			t.Fatalf("%s: witness %v does not separate the mutant from the network (%v)", shape, w, err)
		}
	}

	res, err := Synthesize(router, Options{Method: labeling.MethodHeuristic})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FormalVerify(0); err != nil {
		t.Fatalf("2D: %v", err)
	}
	d := clone2D(t, res.Design)
	flipFirstLit(t, d.Planes[0])
	check("2D", router, xbar.FormalVerify(d, router, 0), d.EvalChecked)

	res, err = Synthesize(router, Options{Layers: 3, Method: labeling.MethodHeuristic})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FormalVerify(0); err != nil {
		t.Fatalf("K=3: %v", err)
	}
	d3 := res.Design3D.Clone()
	flipFirstLit(t, d3.Planes[0])
	check("K=3", router, xbar3d.FormalVerify3D(d3, router, 0), d3.EvalChecked)

	nw := cascadeNet(t)
	res, err = Synthesize(nw, Options{Partition: true, MaxRows: 6, MaxCols: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FormalVerify(0); err != nil {
		t.Fatalf("plan: %v", err)
	}
	plan := *res.Plan
	plan.Tiles = append([]partition.Tile(nil), res.Plan.Tiles...)
	plan.Tiles[0].Design = clone2D(t, plan.Tiles[0].Design)
	flipFirstLit(t, plan.Tiles[0].Design.Planes[0])
	check("plan", nw, plan.FormalVerify(nw, 0), plan.Eval)
}
