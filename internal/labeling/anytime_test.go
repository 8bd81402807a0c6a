package labeling

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"compact/internal/faultinject"
)

// TestAnytimeContract checks the anytime contract of DESIGN §5b for every
// method at K = 2, 3 and 4, on graphs small enough that every engine
// closes, against every way a budget can end: a context dead on entry
// returns its error; one that dies at its 1st check (the entry check) or
// at its 1000th, or one that never dies, returns a valid labeling. Where
// the method keeps a trace (mip and portfolio, and auto and oct at
// K >= 3, where they race as the portfolio) the trace is non-empty and its
// last bound is at most the labeling's objective.
func TestAnytimeContract(t *testing.T) {
	problems := map[string]Problem{
		"C9":       {G: cycle(9)},
		"random12": {G: randomGraph(rand.New(rand.NewSource(3)), 12, 0.3), AlignH: []int{0}},
	}
	budgets := []struct {
		name   string
		checks int // live checks before the budget ends; -1 = unbounded
	}{
		{"dead on entry", 0},
		{"dies at its 1st check", 1},
		{"dies at its 1000th check", 1000},
		{"unbounded", -1},
	}
	methods := []Method{MethodAuto, MethodOCT, MethodMIP, MethodHeuristic, MethodPortfolio}
	for pname, p := range problems {
		for _, m := range methods {
			for _, k := range []int{2, 3, 4} {
				traced := m == MethodMIP || m == MethodPortfolio || (k >= 3 && m != MethodHeuristic)
				for _, b := range budgets {
					name := fmt.Sprintf("%s/%v/K=%d/%s", pname, m, k, b.name)
					ctx := context.Background()
					if b.checks >= 0 {
						ctx = faultinject.Budget(b.checks)
					}
					opts := Options{Method: m, Gamma: 0.5}
					sol, err := SolveK(ctx, p, k, opts)
					if b.checks == 0 {
						if want := ctx.Err(); err == nil || !errors.Is(err, want) {
							t.Errorf("%s: got (%v, %v), want %v", name, sol, err, want)
						}
						continue
					}
					if err != nil {
						t.Errorf("%s: %v", name, err)
						continue
					}
					if sol.K != k {
						t.Errorf("%s: K = %d", name, sol.K)
					}
					if err := Validate(p, k, sol.Lo, sol.Hi); err != nil {
						t.Errorf("%s: invalid labeling: %v", name, err)
					}
					if !traced {
						continue
					}
					if len(sol.Trace) == 0 {
						t.Errorf("%s: %s answer carries no trace", name, sol.Method)
						continue
					}
					obj := sol.Stats.Objective(opts.Gamma)
					if bound := sol.Trace[len(sol.Trace)-1].Bound; bound > obj+1e-9 {
						t.Errorf("%s: %s bound %v above objective %v", name, sol.Method, bound, obj)
					}
				}
			}
		}
	}
}
