package labeling

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// slowProblem returns an instance dense enough that the exact MIP cannot
// finish within a fraction of a second, so TimeLimit expiry is exercised
// mid-solve rather than between stages.
func slowProblem(seed int64) Problem {
	rng := rand.New(rand.NewSource(seed))
	return Problem{G: randomGraph(rng, 140, 0.06)}
}

// TestTimeLimitAdherenceMIP: Solve with a TimeLimit on a slow instance must
// return within the budget (plus a scheduling tolerance, well under the
// 1.5x overshoots the per-stage budgeting used to allow) and still hand
// back a valid labeling — the anytime contract.
func TestTimeLimitAdherenceMIP(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	p := slowProblem(7)
	budget := 1200 * time.Millisecond
	start := time.Now()
	sol, err := SolveContext(context.Background(), p, Options{Method: MethodMIP, Gamma: 0.5, TimeLimit: budget})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("budgeted solve failed instead of degrading: %v", err)
	}
	// 20% tolerance covers goroutine scheduling and the final tableau pivot.
	if limit := budget + budget/5; elapsed > limit {
		t.Errorf("TimeLimit=%v overshot: elapsed %v > %v", budget, elapsed, limit)
	}
	if err := Validate(p, sol.Labels); err != nil {
		t.Errorf("degraded solution invalid: %v", err)
	}
}

// TestTimeLimitAdherencePortfolio: the portfolio races several engines but
// shares ONE deadline; expiry must bound the whole race, not each engine.
func TestTimeLimitAdherencePortfolio(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	p := slowProblem(11)
	budget := 1200 * time.Millisecond
	start := time.Now()
	sol, err := SolveContext(context.Background(), p, Options{Method: MethodPortfolio, Gamma: 0.5, TimeLimit: budget})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("budgeted portfolio failed instead of degrading: %v", err)
	}
	if limit := budget + budget/5; elapsed > limit {
		t.Errorf("TimeLimit=%v overshot: elapsed %v > %v", budget, elapsed, limit)
	}
	if err := Validate(p, sol.Labels); err != nil {
		t.Errorf("portfolio solution invalid: %v", err)
	}
	if len(sol.Engines) == 0 {
		t.Error("portfolio solution missing engine reports")
	}
}

// TestPreCancelledContext: a context that is already dead on entry returns
// promptly with its error for every method, without starting any engine.
func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := slowProblem(3)
	for _, m := range []Method{MethodOCT, MethodMIP, MethodHeuristic, MethodPortfolio, MethodAuto} {
		start := time.Now()
		_, err := SolveContext(ctx, p, Options{Method: m, Gamma: 0.5})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("method %v: want context.Canceled, got %v", m, err)
		}
		if e := time.Since(start); e > 100*time.Millisecond {
			t.Errorf("method %v: pre-cancelled solve took %v", m, e)
		}
	}
}

// TestCancellationMidSolve: cancelling a running MIP unwinds with the best
// labeling so far instead of an error.
func TestCancellationMidSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	p := slowProblem(19)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(200 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	sol, err := SolveContext(ctx, p, Options{Method: MethodMIP, Gamma: 0.5})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("mid-solve cancel produced error instead of degrading: %v", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancelled solve took %v; want prompt unwind", elapsed)
	}
	if err := Validate(p, sol.Labels); err != nil {
		t.Errorf("cancelled solution invalid: %v", err)
	}
}

// TestPortfolioNeverWorseThanSingles: on instances every engine can finish,
// the portfolio's objective must match or beat each single method — it
// returns the best of the race by construction.
func TestPortfolioNeverWorseThanSingles(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 6; trial++ {
		p := Problem{G: randomGraph(rng, 12, 0.3)}
		opts := Options{Gamma: 0.5, TimeLimit: 10 * time.Second}

		popts := opts
		popts.Method = MethodPortfolio
		port, err := SolveContext(context.Background(), p, popts)
		if err != nil {
			t.Fatalf("trial %d: portfolio: %v", trial, err)
		}
		for _, m := range []Method{MethodOCT, MethodMIP, MethodHeuristic} {
			sopts := opts
			sopts.Method = m
			single, err := SolveContext(context.Background(), p, sopts)
			if err != nil {
				t.Fatalf("trial %d: %v: %v", trial, m, err)
			}
			if port.Stats.Objective(0.5) > single.Stats.Objective(0.5)+1e-9 {
				t.Errorf("trial %d: portfolio objective %.3f worse than %v's %.3f",
					trial, port.Stats.Objective(0.5), m, single.Stats.Objective(0.5))
			}
		}
	}
}

// TestPortfolioEngineReports: the winning engine is flagged, and elapsed
// times are populated.
func TestPortfolioEngineReports(t *testing.T) {
	sol, err := SolveContext(context.Background(), Problem{G: cycle(9)}, Options{Method: MethodPortfolio, Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	winners := 0
	for _, er := range sol.Engines {
		if er.Winner {
			winners++
			if "portfolio("+er.Method+")" != sol.Method {
				t.Errorf("winner %q does not match method %q", er.Method, sol.Method)
			}
		}
	}
	if winners != 1 {
		t.Errorf("want exactly 1 winning engine, got %d (%+v)", winners, sol.Engines)
	}
}
