package oct

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"compact/internal/faultinject"
	"compact/internal/graph"
	"compact/internal/invariant"
)

func cycle(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

func randomGraph(rng *rand.Rand, n int, p float64) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// bruteMinOCT finds the true minimum OCT size by enumeration.
func bruteMinOCT(g *graph.Graph) int {
	n := g.N()
	for k := 0; k <= n; k++ {
		if tryK(g, k, 0, map[int]bool{}) {
			return k
		}
	}
	return n
}

func tryK(g *graph.Graph, k, from int, removed map[int]bool) bool {
	sub, _ := g.RemoveVertices(removed)
	if sub.IsBipartite() {
		return true
	}
	if k == 0 {
		return false
	}
	for v := from; v < g.N(); v++ {
		if removed[v] {
			continue
		}
		removed[v] = true
		if tryK(g, k-1, v+1, removed) {
			delete(removed, v)
			return true
		}
		delete(removed, v)
	}
	return false
}

func TestBipartiteGraphEmptyOCT(t *testing.T) {
	res, err := FindContext(context.Background(), cycle(8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OCT) != 0 || !res.Optimal {
		t.Errorf("C8 OCT = %v", res.OCT)
	}
	if err := invariant.ResidualBipartite(cycle(8), res.OCT, res.Side); err != nil {
		t.Error(err)
	}
}

func TestOddCycleOCT(t *testing.T) {
	for _, n := range []int{3, 5, 7, 9} {
		g := cycle(n)
		res, err := FindContext(context.Background(), g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.OCT) != 1 || !res.Optimal {
			t.Errorf("C%d: OCT size %d, want 1", n, len(res.OCT))
		}
		if err := invariant.ResidualBipartite(g, res.OCT, res.Side); err != nil {
			t.Errorf("C%d: %v", n, err)
		}
	}
}

func TestCompleteGraphOCT(t *testing.T) {
	// K_n needs n-2 removals to become bipartite.
	g := graph.New(6)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			g.AddEdge(i, j)
		}
	}
	res, err := FindContext(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OCT) != 4 || !res.Optimal {
		t.Errorf("K6: OCT size %d, want 4", len(res.OCT))
	}
}

// TestFindMatchesBruteForce checks the default engine's proven k against
// Lemma 1's ILP and brute force on random graphs of up to 14 vertices.
func TestFindMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 90; trial++ {
		n, p := 9, 0.3
		if trial >= 30 {
			n, p = 4+rng.Intn(11), 0.2+0.4*rng.Float64()
		}
		checkAgainstLemma1(t, randomGraph(rng, n, p))
	}
}

func TestILPBackendAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 8, 0.35)
		a, errA := FindContext(context.Background(), g, Options{Backend: BackendBB})
		b, errB := FindContext(context.Background(), g, Options{Backend: BackendILP})
		if errA != nil || errB != nil {
			t.Fatalf("trial %d: Find errors: %v / %v", trial, errA, errB)
		}
		for _, res := range []Result{a, b} {
			if err := invariant.ResidualBipartite(g, res.OCT, res.Side); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		if a.Optimal && b.Optimal && len(a.OCT) != len(b.OCT) {
			t.Fatalf("trial %d: backends disagree: %d vs %d", trial, len(a.OCT), len(b.OCT))
		}
	}
}

func TestHeuristicValid(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, 30, 0.15)
		res := Heuristic(g)
		if err := invariant.ResidualBipartite(g, res.OCT, res.Side); err != nil {
			t.Fatalf("trial %d: heuristic OCT invalid: %v", trial, err)
		}
		// Heuristic should be within a reasonable factor on these sizes;
		// at minimum it must never exceed n.
		if len(res.OCT) > g.N() {
			t.Fatalf("trial %d: absurd OCT size", trial)
		}
	}
}

func TestHeuristicOnOddCycle(t *testing.T) {
	res := Heuristic(cycle(7))
	if err := invariant.ResidualBipartite(cycle(7), res.OCT, res.Side); err != nil {
		t.Fatal(err)
	}
	if len(res.OCT) != 1 {
		t.Errorf("heuristic OCT on C7 = %d, want 1 (pruning should reach it)", len(res.OCT))
	}
}

func TestTimeLimitStillValid(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	g := randomGraph(rng, 60, 0.2)
	for _, checks := range []int{1, 2, 10} {
		res, err := FindContext(faultinject.Budget(checks), g, Options{})
		if err != nil {
			t.Fatalf("ctx dies after %d checks: %v", checks, err)
		}
		if res.Optimal {
			t.Errorf("ctx dies after %d checks: result claims optimality", checks)
		}
		if err := invariant.ResidualBipartite(g, res.OCT, res.Side); err != nil {
			t.Fatalf("ctx dies after %d checks: %v", checks, err)
		}
	}
}

func TestDeadContextOnEntry(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, backend := range []Backend{BackendBB, BackendILP} {
		res, err := FindContext(ctx, cycle(5), Options{Backend: backend})
		if !errors.Is(err, context.Canceled) || res.OCT != nil {
			t.Errorf("backend %d: got (%v, %v), want (Result{}, context.Canceled)", backend, res.OCT, err)
		}
	}
}

// lemma1OCT is the size of a minimum OCT of g by Lemma 1 as the paper
// solves it: the ILP backend's minimum vertex cover of G □ K2 has n + k*
// vertices, and both copies of each transversal vertex are in it.
func lemma1OCT(t testing.TB, g *graph.Graph) int {
	t.Helper()
	res, err := FindContext(context.Background(), g, Options{Backend: BackendILP})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal {
		t.Fatal("Lemma 1 ILP not optimal without a time limit")
	}
	return len(res.OCT)
}

// checkAgainstLemma1 runs the default engine on g and compares its proven
// k with two oracles: Lemma 1's vertex-cover ILP and, independent of
// package ilp, brute-force enumeration.
func checkAgainstLemma1(t *testing.T, g *graph.Graph) {
	t.Helper()
	res, err := FindContext(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal {
		t.Fatalf("not optimal without a time limit on edges %v", g.Edges())
	}
	if want := lemma1OCT(t, g); len(res.OCT) != want {
		t.Fatalf("k=%d, Lemma 1 ILP gives %d on edges %v", len(res.OCT), want, g.Edges())
	}
	if want := bruteMinOCT(g); len(res.OCT) != want {
		t.Fatalf("k=%d, brute force gives %d on edges %v", len(res.OCT), want, g.Edges())
	}
}

// FuzzOCTVsLemma1 builds a graph on at most 14 vertices from (n, edge
// bytes; two per edge) and checks the default engine's proven k against
// Lemma 1's vertex-cover ILP and brute force.
func FuzzOCTVsLemma1(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 1, 2, 2, 0})
	f.Add(uint8(6), []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 2, 2, 3, 3, 4, 4, 5, 5, 1})
	f.Add(uint8(9), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 5, 6, 6, 7, 7, 5, 2, 6, 8, 0, 8, 4})
	f.Fuzz(func(t *testing.T, n uint8, edges []byte) {
		nn := 1 + int(n)%14
		g := graph.New(nn)
		for i := 0; i+1 < len(edges) && i < 2*nn*nn; i += 2 {
			if u, v := int(edges[i])%nn, int(edges[i+1])%nn; u != v {
				if err := g.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkAgainstLemma1(t, g)
	})
}

// TestFromCoverFallsBackOnBadCover feeds fromCover a set that leaves an
// edge of G □ K2 uncovered, so the coloring read off it is improper; the
// residual check must reject it and fall back to the greedy OCT.
func TestFromCoverFallsBackOnBadCover(t *testing.T) {
	g := cycle(5)
	bad := map[int]bool{0: true, 1: true, 7: true, 8: true, 9: true} // sides 0,0,1,1,1
	res := fromCover(g, bad, true)
	if err := invariant.ResidualBipartite(g, res.OCT, res.Side); err != nil {
		t.Fatal(err)
	}
	if res.Optimal || len(res.OCT) != 1 {
		t.Errorf("fallback = %v (optimal=%v), want the heuristic's OCT of size 1", res.OCT, res.Optimal)
	}
}

// pruneRecolor is the recoloring prune, kept as an oracle: it tries to
// return each vertex of the transversal to the graph on its own, keeping
// it out when one full 2-coloring of the residual graph succeeds, and
// lists the vertices that could come back.
func pruneRecolor(g *graph.Graph, oct map[int]bool) []int {
	in := make([]bool, g.N())
	for v := range oct {
		in[v] = true
	}
	var back []int
	for v, x := range in {
		if !x {
			continue
		}
		in[v] = false
		if tryColor(g, in) != nil {
			back = append(back, v)
		}
		in[v] = true
	}
	return back
}

// checkNothingToReadmit runs Heuristic on g and checks its transversal is
// valid and minimal by inclusion under the recoloring oracle.
func checkNothingToReadmit(t *testing.T, g *graph.Graph) {
	t.Helper()
	res := Heuristic(g)
	if err := invariant.ResidualBipartite(g, res.OCT, res.Side); err != nil {
		t.Fatal(err)
	}
	if back := pruneRecolor(g, res.OCT); len(back) > 0 {
		t.Fatalf("recoloring re-admits %v of transversal %v on edges %v", back, res.OCT, g.Edges())
	}
}

// TestPruneMatchesRecolor checks on random graphs that the recoloring
// prune can return no vertex of Heuristic's transversal to the graph: a
// vertex joins it only before it is expanded, so its conflict closes an
// odd cycle through expanded vertices alone, and an expanded vertex never
// joins.
func TestPruneMatchesRecolor(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	nonEmpty := 0
	for trial := 0; trial < 600; trial++ {
		n := 2 + rng.Intn(60)
		g := randomGraph(rng, n, 0.5*rng.Float64()*rng.Float64())
		checkNothingToReadmit(t, g)
		if len(Heuristic(g).OCT) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 300 {
		t.Errorf("only %d of 600 graphs had a non-empty transversal", nonEmpty)
	}
}

// FuzzHeuristicVsRecolor builds a graph on at most 64 vertices from (n,
// edge bytes; two per edge) and checks that the recoloring prune
// re-admits nothing from Heuristic's transversal.
func FuzzHeuristicVsRecolor(f *testing.F) {
	f.Add(uint8(5), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 0})
	f.Add(uint8(7), []byte{0, 1, 0, 2, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 2})
	f.Add(uint8(12), []byte{0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3, 0, 3, 6, 7, 7, 8, 8, 6, 9, 10, 10, 11, 11, 9, 6, 9})
	f.Fuzz(func(t *testing.T, n uint8, edges []byte) {
		nn := 1 + int(n)%64
		g := graph.New(nn)
		for i := 0; i+1 < len(edges) && i < 2*nn*nn; i += 2 {
			if u, v := int(edges[i])%nn, int(edges[i+1])%nn; u != v {
				if err := g.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkNothingToReadmit(t, g)
	})
}

// TestHeuristicDeterministic checks Heuristic for repeatability on random
// graphs.
func TestHeuristicDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 40, 0.1)
		first := Heuristic(g)
		for run := 0; run < 20; run++ {
			if res := Heuristic(g); !reflect.DeepEqual(res, first) {
				t.Fatalf("trial %d run %d: %v, first run %v", trial, run, res.OCT, first.OCT)
			}
		}
	}
}
