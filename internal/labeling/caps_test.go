package labeling

import (
	"context"
	"errors"
	"testing"
)

// The cap-feasibility boundary: a labeling of an n-node graph always has
// S = Rows + Cols = n + #VH >= n, so caps summing to less than n (plus
// the odd-cycle lower bound on #VH) are provably infeasible, while caps
// that admit the optimum must be met exactly by every method.

func capMethods() []Method {
	return []Method{MethodHeuristic, MethodOCT, MethodMIP, MethodPortfolio}
}

// cycle(8) is bipartite: no VH nodes needed, optimal S = 8, and the
// alternating labeling balances to 4x4. Caps of exactly 4x4 fit with zero
// slack; shrinking either axis by one makes the sum 7 < n = 8, which
// every method must refuse with ErrInfeasible.
func TestCapBoundaryBipartite(t *testing.T) {
	for _, m := range capMethods() {
		t.Run(m.String(), func(t *testing.T) {
			p := Problem{G: cycle(8)}
			sol, err := SolveContext(context.Background(), p, Options{Method: m, Gamma: 0.5, MaxRows: 4, MaxCols: 4})
			if err != nil {
				t.Fatalf("caps 4x4 fit exactly, got error: %v", err)
			}
			if sol.Stats.Rows > 4 || sol.Stats.Cols > 4 {
				t.Fatalf("solution %dx%d violates 4x4 caps", sol.Stats.Rows, sol.Stats.Cols)
			}
			if err := Validate(p, sol.Labels); err != nil {
				t.Fatalf("invalid labeling: %v", err)
			}
			for _, caps := range [][2]int{{4, 3}, {3, 4}} {
				_, err := SolveContext(context.Background(), p, Options{Method: m, Gamma: 0.5, MaxRows: caps[0], MaxCols: caps[1]})
				if !errors.Is(err, ErrInfeasible) {
					t.Fatalf("caps %dx%d (sum < n): want ErrInfeasible, got %v", caps[0], caps[1], err)
				}
			}
		})
	}
}

// cycle(7) is an odd cycle: at least one VH node, so S >= n + 1 = 8.
// Caps of 4x4 admit the optimum; caps summing to 7 pass the cheap n-node
// pre-check (7 > 7 is false) but are still infeasible, exercising each
// method's own cap enforcement.
func TestCapBoundaryOddCycle(t *testing.T) {
	for _, m := range capMethods() {
		t.Run(m.String(), func(t *testing.T) {
			p := Problem{G: cycle(7)}
			sol, err := SolveContext(context.Background(), p, Options{Method: m, Gamma: 0.5, MaxRows: 4, MaxCols: 4})
			if err != nil {
				t.Fatalf("caps 4x4 fit the odd-cycle optimum, got error: %v", err)
			}
			if sol.Stats.Rows > 4 || sol.Stats.Cols > 4 {
				t.Fatalf("solution %dx%d violates 4x4 caps", sol.Stats.Rows, sol.Stats.Cols)
			}
			if sol.Stats.S < 8 {
				t.Fatalf("odd cycle needs S >= 8, got %d (invalid solution?)", sol.Stats.S)
			}
			_, err = SolveContext(context.Background(), p, Options{Method: m, Gamma: 0.5, MaxRows: 4, MaxCols: 3})
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("caps 4x3 (sum = n < n+1): want ErrInfeasible, got %v", err)
			}
		})
	}
}

// The O(1) node-count pre-check must fire without running any solver:
// both caps set and n > MaxRows + MaxCols is a proof.
func TestCapPrecheckProvesInfeasible(t *testing.T) {
	_, err := SolveContext(context.Background(), Problem{G: path(100)}, Options{Method: MethodHeuristic, MaxRows: 10, MaxCols: 10})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("100 nodes under 10x10 caps: want ErrInfeasible, got %v", err)
	}
	// One-sided caps never trigger the pre-check (the other axis absorbs
	// the rest).
	if _, err := SolveContext(context.Background(), Problem{G: path(30)}, Options{Method: MethodHeuristic, MaxRows: 16}); err != nil {
		t.Fatalf("one-sided cap should be satisfiable: %v", err)
	}
}
