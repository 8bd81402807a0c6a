package labeling

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// TestBudgetFeasible: a generous budget must be met, and the result
// respects the caps.
func TestBudgetFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 8; trial++ {
		g := randomGraph(rng, 8, 0.3)
		// First solve unconstrained to learn a feasible shape.
		free, err := SolveContext(context.Background(), Problem{G: g}, Options{Method: MethodMIP, Gamma: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		sol, err := SolveContext(context.Background(), Problem{G: g}, Options{
			Method: MethodMIP, Gamma: 0.5,
			MaxRows: free.Stats.Rows + 2, MaxCols: free.Stats.Cols + 2,
		})
		if err != nil {
			t.Fatalf("trial %d: generous budget rejected: %v", trial, err)
		}
		if sol.Stats.Rows > free.Stats.Rows+2 || sol.Stats.Cols > free.Stats.Cols+2 {
			t.Fatalf("trial %d: budget violated: %+v", trial, sol.Stats)
		}
	}
}

// TestBudgetInfeasible: a budget below the node count cannot fit any
// labeling (every node needs a row or a column, and rows+cols >= n).
func TestBudgetInfeasible(t *testing.T) {
	g := cycle(9) // n=9, S >= 10 (odd cycle needs one VH)
	_, err := SolveContext(context.Background(), Problem{G: g}, Options{
		Method: MethodMIP, Gamma: 1,
		MaxRows: 4, MaxCols: 4, // rows+cols <= 8 < 10
	})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("expected ErrInfeasible, got %v", err)
	}
}

// TestBudgetTightFeasible: the exact optimum's dimensions are feasible as
// a budget.
func TestBudgetTightFeasible(t *testing.T) {
	g := cycle(9)
	free, err := SolveContext(context.Background(), Problem{G: g}, Options{Method: MethodMIP, Gamma: 0})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveContext(context.Background(), Problem{G: g}, Options{
		Method: MethodMIP, Gamma: 0,
		MaxRows: free.Stats.Rows, MaxCols: free.Stats.Cols,
	})
	if err != nil {
		t.Fatalf("tight budget rejected: %v", err)
	}
	if sol.Stats.Rows > free.Stats.Rows || sol.Stats.Cols > free.Stats.Cols {
		t.Fatalf("budget violated: %+v vs %+v", sol.Stats, free.Stats)
	}
}

// TestBudgetNonMIPMethodsChecked: heuristic results violating the caps are
// rejected rather than silently returned.
func TestBudgetNonMIPMethodsChecked(t *testing.T) {
	g := cycle(9)
	_, err := SolveContext(context.Background(), Problem{G: g}, Options{
		Method: MethodHeuristic, MaxRows: 1, MaxCols: 1,
	})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("expected ErrInfeasible from heuristic path, got %v", err)
	}
}
