package labeling

import (
	"context"
	"strings"
	"testing"
	"time"

	"compact/internal/graph"
)

// wheel returns an odd wheel: a hub adjacent to every rim node of an
// odd cycle — non-bipartite, forcing at least one spanning interval.
func wheel(rim int) *graph.Graph {
	g := graph.New(rim + 1)
	for i := 0; i < rim; i++ {
		if err := g.AddEdge(i, (i+1)%rim); err != nil {
			panic(err)
		}
		if err := g.AddEdge(i, rim); err != nil {
			panic(err)
		}
	}
	return g
}

// grid returns a bipartite a x b grid graph.
func grid(a, b int) *graph.Graph {
	g := graph.New(a * b)
	id := func(i, j int) int { return i*b + j }
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			if i+1 < a {
				if err := g.AddEdge(id(i, j), id(i+1, j)); err != nil {
					panic(err)
				}
			}
			if j+1 < b {
				if err := g.AddEdge(id(i, j), id(i, j+1)); err != nil {
					panic(err)
				}
			}
		}
	}
	return g
}

func TestSolveKFoldShrinksFootprint(t *testing.T) {
	// A grid has many H nodes to fold across even layers; S must strictly
	// decrease from K=2 to K=3 and stay monotone through K=4.
	p := Problem{G: grid(6, 6), AlignH: []int{0}}
	prev := -1
	for _, k := range []int{2, 3, 4} {
		sol, err := SolveK(context.Background(), p, k, Options{Method: MethodHeuristic, Gamma: 0.5})
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if err := Validate(p, k, sol.Lo, sol.Hi); err != nil {
			t.Fatalf("K=%d invalid: %v", k, err)
		}
		if prev > 0 {
			if sol.Stats.S > prev {
				t.Fatalf("K=%d semiperimeter %d regressed above %d", k, sol.Stats.S, prev)
			}
			if k == 3 && sol.Stats.S >= prev {
				t.Fatalf("K=3 semiperimeter %d did not strictly beat K=2's %d", sol.Stats.S, prev)
			}
		}
		prev = sol.Stats.S
	}
}

func TestSolveKMIPOnWheel(t *testing.T) {
	p := Problem{G: wheel(5), AlignH: []int{5}}
	sol, err := solveWithin(10*time.Second, p, 3, Options{Method: MethodMIP, Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(p, 3, sol.Lo, sol.Hi); err != nil {
		t.Fatal(err)
	}
	heur, err := SolveK(context.Background(), p, 3, Options{Method: MethodHeuristic, Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Objective(0.5) > heur.Stats.Objective(0.5)+1e-9 {
		t.Fatalf("K-MIP objective %.2f worse than fold heuristic %.2f", sol.Stats.Objective(0.5), heur.Stats.Objective(0.5))
	}
}

func TestSolveKPortfolioReportsEngines(t *testing.T) {
	p := Problem{G: wheel(7), AlignH: []int{7}}
	sol, err := solveWithin(2*time.Second, p, 4, Options{Method: MethodPortfolio, Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Engines) != 2 {
		t.Fatalf("engine reports %d, want 2", len(sol.Engines))
	}
	winners := 0
	for _, e := range sol.Engines {
		if e.Winner {
			winners++
		}
	}
	if winners != 1 {
		t.Fatalf("%d winning engines, want exactly 1", winners)
	}
}

func TestSolveKRejectsOversizedK(t *testing.T) {
	p := Problem{G: wheel(5)}
	if _, err := SolveK(context.Background(), p, MaxLayers+1, Options{}); err == nil {
		t.Fatal("K above MaxLayers accepted")
	}
}

func TestValidateKCatchesGaps(t *testing.T) {
	g := graph.New(2)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	p := Problem{G: g}
	if err := Validate(p, 4, []int{0, 3}, []int{0, 3}); err == nil {
		t.Fatal("non-adjacent layers accepted")
	}
	if err := Validate(p, 4, []int{0, 1}, []int{0, 1}); err != nil {
		t.Fatalf("adjacent layers rejected: %v", err)
	}
	if err := Validate(Problem{G: g, AlignH: []int{1}}, 4, []int{0, 1}, []int{0, 1}); err == nil {
		t.Fatal("odd-only alignment interval accepted")
	}
}

// TestKOccupancyFloorUsesProvenOCT pins the interval ILP's occupancy
// floor Σ x[v][l] >= n + kLB at max(packing, proven k*). On K5 the
// vertex-disjoint odd-cycle packing holds one triangle, while the minimum
// OCT has 3 vertices: with the warm start's budget the floor reads n + 3,
// and with the budget already gone (greedy OCT, nothing proven) it falls
// back to the packing's n + 1.
func TestKOccupancyFloorUsesProvenOCT(t *testing.T) {
	g := graph.New(5)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			if err := g.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	p := Problem{G: g}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name string
		ctx  context.Context
		want string
	}{{"proven", context.Background(), "8"}, {"expired", dead, "6"}} {
		for _, k := range []int{3, 4} {
			m := intervalModel(p, k, Options{Gamma: 0.5})
			if _, _, err := m.addOCTRows(c.ctx, p, Options{}); err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			if err := m.mod.WriteText(&b); err != nil {
				t.Fatal(err)
			}
			var floor string
			for _, line := range strings.Split(b.String(), "\n") {
				if f := strings.Fields(line); len(f) > 2 && f[0] == "row" && f[1] == "semiLB" {
					floor = f[len(f)-1]
				}
			}
			if floor != c.want {
				t.Errorf("%s K=%d: occupancy floor %q, want n + kLB = %s", c.name, k, floor, c.want)
			}
		}
	}
}
