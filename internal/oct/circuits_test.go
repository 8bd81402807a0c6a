package oct_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"compact/internal/bdd"
	"compact/internal/bench"
	"compact/internal/graph"
	"compact/internal/invariant"
	"compact/internal/oct"
	"compact/internal/xbar"
)

// circuitGraph builds the labeling graph of a bundled circuit: its shared
// BDD in the DFS variable order, as the pipeline maps it.
func circuitGraph(t testing.TB, circuit string) *graph.Graph {
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
	return bg.G
}

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
			g := circuitGraph(t, c.circuit)
			res, err := oct.FindContext(context.Background(), g, oct.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Optimal || len(res.OCT) != c.k {
				t.Fatalf("k=%d optimal=%v, want proven k=%d", len(res.OCT), res.Optimal, c.k)
			}
			if err := invariant.ResidualBipartite(g, res.OCT, res.Side); err != nil {
				t.Fatal(err)
			}
			if res.Nodes > c.nodes {
				t.Errorf("proof took %d nodes, ceiling %d", res.Nodes, c.nodes)
			}
		})
	}
}

// rebuildOddCycles is DisjointOddCycles as one induced subgraph per
// packed cycle: graph.OddCycle on g minus the cycles packed so far. The
// masked BFS must return the same cycles in the same order.
func rebuildOddCycles(g *graph.Graph) [][]int {
	removed := make(map[int]bool)
	var cycles [][]int
	for {
		sub, orig := g.RemoveVertices(removed)
		cyc := sub.OddCycle()
		if cyc == nil {
			return cycles
		}
		mapped := make([]int, len(cyc))
		for i, v := range cyc {
			mapped[i] = orig[v]
			removed[orig[v]] = true
		}
		cycles = append(cycles, mapped)
	}
}

// TestDisjointOddCyclesMatchRebuild compares DisjointOddCycles with the
// subgraph-rebuilding oracle on the labeling graph of every bundled
// circuit but arbiter (the oracle takes ~30 s there), and on random
// graphs whose edges are inserted in shuffled order, so adjacency lists
// are not sorted.
func TestDisjointOddCyclesMatchRebuild(t *testing.T) {
	for _, name := range bench.Names() {
		if name == "arbiter" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			g := circuitGraph(t, name)
			if got, want := oct.DisjointOddCycles(g), rebuildOddCycles(g); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d cycles, oracle packs %d: %v vs %v", len(got), len(want), got, want)
			}
		})
	}
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(50)
		g := graph.New(n)
		for _, uv := range rng.Perm(n * n) {
			if u, v := uv/n, uv%n; u != v && rng.Float64() < 0.15 {
				g.AddEdge(u, v)
			}
		}
		if got, want := oct.DisjointOddCycles(g), rebuildOddCycles(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: %v, oracle %v on edges %v", trial, got, want, g.Edges())
		}
	}
}

// TestHeuristicAllocations bounds the greedy OCT's work by allocation
// count rather than wall clock: on c7552's graph (a 739-vertex
// transversal) it must allocate fewer times than the transversal has
// vertices, which a 2-coloring per transversal vertex exceeds.
func TestHeuristicAllocations(t *testing.T) {
	g := circuitGraph(t, "c7552")
	k := len(oct.Heuristic(g).OCT)
	if k != 739 {
		t.Fatalf("|OCT| = %d, want 739", k)
	}
	if allocs := testing.AllocsPerRun(3, func() { oct.Heuristic(g) }); allocs >= float64(k) {
		t.Errorf("Heuristic made %.0f allocations, want fewer than |OCT| = %d", allocs, k)
	}
}

// TestCircuitHeuristicReadmitsNothing checks on the labeling graphs of the
// bundled circuits, both the shared BDD and the per-output ROBDDs merged
// by the 1-terminal, that the recoloring prune can return no vertex of
// Heuristic's transversal to the graph. arbiter is left out for time.
func TestCircuitHeuristicReadmitsNothing(t *testing.T) {
	for _, name := range bench.Names() {
		if name == "arbiter" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			nw := bench.MustBuild(name)
			singles, err := bdd.BuildSeparate(nw, bdd.DFSOrder(nw), 0)
			if err != nil {
				t.Fatal(err)
			}
			robdd, err := xbar.FromSeparate(singles, nw.InputNames())
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range []*graph.Graph{circuitGraph(t, name), robdd.G} {
				res := oct.Heuristic(g)
				if err := invariant.ResidualBipartite(g, res.OCT, res.Side); err != nil {
					t.Fatal(err)
				}
				if back := oct.PruneRecolor(g, res.OCT); len(back) > 0 {
					t.Fatalf("recoloring re-admits %d of %d transversal vertices", len(back), len(res.OCT))
				}
			}
		})
	}
}
