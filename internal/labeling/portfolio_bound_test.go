package labeling_test

import (
	"context"
	"testing"
	"time"

	"compact/internal/bdd"
	"compact/internal/bench"
	"compact/internal/labeling"
	"compact/internal/xbar"
)

// circuitGraph builds the labeling graph of a bundled circuit: its shared
// BDD in the DFS variable order, as the pipeline maps it.
func circuitGraph(t testing.TB, circuit string) *xbar.BDDGraph {
	t.Helper()
	nw := bench.MustBuild(circuit)
	m, roots, err := bdd.BuildNetwork(nw, bdd.DFSOrder(nw), 0)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := xbar.FromBDD(m, roots, nw.OutputNames)
	if err != nil {
		t.Fatal(err)
	}
	return bg
}

// TestPortfolioCarriesBound checks that a portfolio answer closes its
// winner's incumbent on a proven bound whichever engine wins: on c1908 the
// OCT engine wins at K = 2 and cancels the MIP, and on ctrl at K = 3 the
// fold heuristic's labeling is usually the one returned. The trace must be
// non-empty with its last bound at most the objective, and Optimal must
// mean the gap is closed.
func TestPortfolioCarriesBound(t *testing.T) {
	cases := []struct {
		circuit string
		k       int
		opts    labeling.Options
		limit   time.Duration // zero = no deadline
	}{
		{"c1908", 2, labeling.Options{Method: labeling.MethodPortfolio, Gamma: 0.5}, 0},
		{"ctrl", 3, labeling.Options{Gamma: 0.5}, time.Second},
	}
	for _, c := range cases {
		p := circuitGraph(t, c.circuit).Problem(true)
		ctx := context.Background()
		if c.limit > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.limit)
			defer cancel()
		}
		sol, err := labeling.SolveK(ctx, p, c.k, c.opts)
		if err != nil {
			t.Fatalf("%s K=%d: %v", c.circuit, c.k, err)
		}
		obj := sol.Stats.Objective(c.opts.Gamma)
		if len(sol.Trace) == 0 {
			t.Fatalf("%s K=%d: %s answer (objective %.2f) carries no trace", c.circuit, c.k, sol.Method, obj)
		}
		bound := sol.Trace[len(sol.Trace)-1].Bound
		if bound > obj+1e-9 {
			t.Errorf("%s K=%d: %s bound %.4f above objective %.4f", c.circuit, c.k, sol.Method, bound, obj)
		}
		if sol.Optimal && bound < obj-1e-9 {
			t.Errorf("%s K=%d: %s claims optimal with bound %.4f below objective %.4f", c.circuit, c.k, sol.Method, bound, obj)
		}
		t.Logf("%s K=%d: %s objective %.2f bound %.2f optimal=%v", c.circuit, c.k, sol.Method, obj, bound, sol.Optimal)
	}
}
