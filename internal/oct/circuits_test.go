package oct_test

import (
	"context"
	"testing"

	"compact/internal/bdd"
	"compact/internal/bench"
	"compact/internal/invariant"
	"compact/internal/oct"
	"compact/internal/xbar"
)

// TestCircuitOCTWithinNodeCeiling pins the default engine's work on the
// labeling graphs of bundled circuits: each minimum OCT must be proven
// without a time limit and within a node ceiling (about twice the nodes
// the search needs today), so a weaker bound or branching rule fails here
// rather than as a slower benchmark.
func TestCircuitOCTWithinNodeCeiling(t *testing.T) {
	cases := []struct {
		circuit  string
		k, nodes int
	}{
		{"ctrl", 1, 5},
		{"cavlc", 12, 200},
		{"i2c", 13, 100},
		{"int2float", 17, 1500},
	}
	for _, c := range cases {
		t.Run(c.circuit, func(t *testing.T) {
			nw := bench.MustBuild(c.circuit)
			m, roots, err := bdd.BuildNetwork(nw, bdd.DFSOrder(nw), 0)
			if err != nil {
				t.Fatal(err)
			}
			bg, err := xbar.FromBDD(m, roots, nw.OutputNames)
			if err != nil {
				t.Fatal(err)
			}
			res, err := oct.FindContext(context.Background(), bg.G, oct.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Optimal || len(res.OCT) != c.k {
				t.Fatalf("k=%d optimal=%v, want proven k=%d", len(res.OCT), res.Optimal, c.k)
			}
			if err := invariant.ResidualBipartite(bg.G, res.OCT, res.Side); err != nil {
				t.Fatal(err)
			}
			if res.Nodes > c.nodes {
				t.Errorf("proof took %d nodes, ceiling %d", res.Nodes, c.nodes)
			}
		})
	}
}
