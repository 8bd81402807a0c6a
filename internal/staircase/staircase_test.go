package staircase

import (
	"context"
	"math/rand"
	"testing"

	"compact/internal/bdd"
	"compact/internal/labeling"
	"compact/internal/logic"
	"compact/internal/xbar"
)

func toGraph(t *testing.T, nw *logic.Network) *xbar.BDDGraph {
	t.Helper()
	m, roots, err := bdd.BuildNetwork(nw, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := xbar.FromBDD(m, roots, nw.OutputNames)
	if err != nil {
		t.Fatal(err)
	}
	return bg
}

func fig2() *logic.Network {
	b := logic.NewBuilder("fig2")
	a, bb, c := b.Input("a"), b.Input("b"), b.Input("c")
	b.Output("f", b.Or(b.And(a, bb), c))
	return b.Build()
}

func TestFig2Staircase(t *testing.T) {
	nw := fig2()
	bg := toGraph(t, nw)
	d, err := Map(bg)
	if err != nil {
		t.Fatal(err)
	}
	if bad := d.VerifyAgainst(nw.Eval, 3, 10, 0, 1); bad != nil {
		t.Errorf("mismatch on %v", bad)
	}
	// Every node gets a row; columns = nodes with parents (all but root).
	if d.Rows != bg.NumNodes() {
		t.Errorf("rows = %d, want n = %d", d.Rows, bg.NumNodes())
	}
	if d.Cols != bg.NumNodes()-1 {
		t.Errorf("cols = %d, want n-1 = %d", d.Cols, bg.NumNodes()-1)
	}
}

func TestStaircaseRandomNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 15; trial++ {
		nw := randomNetwork(rng, 5, 20)
		bg := toGraph(t, nw)
		d, err := Map(bg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if bad := d.VerifyAgainst(nw.Eval, 5, 10, 0, 1); bad != nil {
			t.Fatalf("trial %d: mismatch on %v", trial, bad)
		}
		// Semiperimeter ~ 2n (minus parentless nodes), plus at most one
		// const-0 output row and one filler bitline in degenerate cases.
		st := d.Stats()
		if st.S > 2*bg.NumNodes()+2 {
			t.Errorf("trial %d: S = %d exceeds 2n+2 = %d", trial, st.S, 2*bg.NumNodes()+2)
		}
	}
}

func TestStaircaseAlwaysLargerThanCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 8; trial++ {
		nw := randomNetwork(rng, 5, 18)
		bg := toGraph(t, nw)
		stair, err := Map(bg)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := labeling.SolveContext(context.Background(), bg.Problem(true), labeling.Options{Method: labeling.MethodMIP, Gamma: 1})
		if err != nil {
			t.Fatal(err)
		}
		comp, err := xbar.Map(bg, sol.Labels)
		if err != nil {
			t.Fatal(err)
		}
		if comp.Stats().S > stair.Stats().S {
			t.Errorf("trial %d: COMPACT S=%d worse than staircase S=%d", trial, comp.Stats().S, stair.Stats().S)
		}
	}
}

func TestStaircaseConstantOutputs(t *testing.T) {
	b := logic.NewBuilder("consts")
	a := b.Input("a")
	b.Output("one", b.Const1())
	b.Output("zero", b.Const0())
	b.Output("nota", b.Not(a))
	nw := b.Build()
	bg := toGraph(t, nw)
	d, err := Map(bg)
	if err != nil {
		t.Fatal(err)
	}
	if bad := d.VerifyAgainst(nw.Eval, 1, 5, 0, 1); bad != nil {
		t.Errorf("mismatch on %v", bad)
	}
}

func TestStaircaseMultiOutput(t *testing.T) {
	b := logic.NewBuilder("adder")
	xs := b.Inputs("x", 3)
	ys := b.Inputs("y", 3)
	sums, cout := b.AddRippleAdder(xs, ys, b.Const0())
	for i, s := range sums {
		b.Output([]string{"s0", "s1", "s2"}[i], s)
	}
	b.Output("cout", cout)
	nw := b.Build()
	bg := toGraph(t, nw)
	d, err := Map(bg)
	if err != nil {
		t.Fatal(err)
	}
	if bad := d.VerifyAgainst(nw.Eval, 6, 10, 0, 1); bad != nil {
		t.Errorf("mismatch on %v", bad)
	}
	if d.InputRow != d.Rows-1 {
		t.Errorf("input row not at bottom")
	}
}

func randomNetwork(rng *rand.Rand, nIn, nGates int) *logic.Network {
	b := logic.NewBuilder("rand")
	var pool []int
	for i := 0; i < nIn; i++ {
		pool = append(pool, b.Input(string(rune('a'+i))))
	}
	for g := 0; g < nGates; g++ {
		pick := func() int { return pool[rng.Intn(len(pool))] }
		var id int
		switch rng.Intn(5) {
		case 0:
			id = b.And(pick(), pick())
		case 1:
			id = b.Or(pick(), pick())
		case 2:
			id = b.Not(pick())
		case 3:
			id = b.Xor(pick(), pick())
		default:
			id = b.Mux(pick(), pick(), pick())
		}
		pool = append(pool, id)
	}
	b.Output("f", pool[len(pool)-1])
	b.Output("g", pool[len(pool)-2])
	return b.Build()
}
