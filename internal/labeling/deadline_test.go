package labeling

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"compact/internal/ilp"
)

// solveWithin is SolveK under a context that times out after d.
func solveWithin(d time.Duration, p Problem, k int, opts Options) (*Solution, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return SolveK(ctx, p, k, opts)
}

// slowProblem returns an instance dense enough that the exact MIP cannot
// finish within a fraction of a second, so deadline expiry is exercised
// mid-solve rather than between stages.
func slowProblem(seed int64) Problem {
	rng := rand.New(rand.NewSource(seed))
	return Problem{G: randomGraph(rng, 140, 0.06)}
}

// TestTimeLimitAdherenceMIP: Solve with a deadline on a slow instance must
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
	sol, err := solveWithin(budget, p, 2, Options{Method: MethodMIP, Gamma: 0.5})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("budgeted solve failed instead of degrading: %v", err)
	}
	// 20% tolerance covers goroutine scheduling and the last simplex pivot
	// before the per-iteration deadline check.
	if limit := budget + budget/5; elapsed > limit {
		t.Errorf("budget %v overshot: elapsed %v > %v", budget, elapsed, limit)
	}
	if err := Validate(p, sol.K, sol.Lo, sol.Hi); err != nil {
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
	sol, err := solveWithin(budget, p, 2, Options{Method: MethodPortfolio, Gamma: 0.5})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("budgeted portfolio failed instead of degrading: %v", err)
	}
	if limit := budget + budget/5; elapsed > limit {
		t.Errorf("budget %v overshot: elapsed %v > %v", budget, elapsed, limit)
	}
	if err := Validate(p, sol.K, sol.Lo, sol.Hi); err != nil {
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
	if err := Validate(p, sol.K, sol.Lo, sol.Hi); err != nil {
		t.Errorf("cancelled solution invalid: %v", err)
	}
}

// TestCutRoundsAnytime runs the exact MIP driver against every budget
// the root's cut rounds can meet: a context dead before the solve, one
// that ends inside the first round's reoptimization, and none. None may
// turn into an error (DESIGN §5b): each must return a valid labeling and
// a non-empty trace whose bound is at most the labeling's objective.
func TestCutRoundsAnytime(t *testing.T) {
	p := Problem{G: randomGraph(rand.New(rand.NewSource(5)), 40, 0.12)}
	opts := Options{Method: MethodMIP, Gamma: 0.5}
	cases := []struct {
		name    string
		dead    bool // ctx cancelled before the solve
		inRound bool // ctx cancelled as the first round's cuts are returned
	}{
		{"dead ctx", true, false},
		{"expires inside the first round", false, true},
		{"unlimited", false, false},
	}
	for _, c := range cases {
		ctx, cancel := context.WithCancel(context.Background())
		if c.dead {
			cancel()
		}
		m := eq4Model(p, opts)
		rounds := 0
		m.cuts = func(x []float64) []ilp.Constraint {
			rounds++
			if c.inRound {
				cancel()
			}
			return m.oddCycleCuts(p.G, x)
		}
		sol, err := solveExact(ctx, p, opts, m, nil, nil)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := Validate(p, sol.K, sol.Lo, sol.Hi); err != nil {
			t.Errorf("%s: invalid labeling: %v", c.name, err)
		}
		if len(sol.Trace) == 0 {
			t.Fatalf("%s: empty trace", c.name)
		}
		obj := sol.Stats.Objective(opts.Gamma)
		if b := sol.Trace[len(sol.Trace)-1].Bound; b > obj+1e-9 {
			t.Errorf("%s: bound %v above the labeling's objective %v", c.name, b, obj)
		}
		switch {
		case c.dead && rounds != 0:
			t.Errorf("%s: %d cut rounds on a dead context", c.name, rounds)
		case c.inRound && (rounds != 1 || sol.Optimal):
			t.Errorf("%s: %d separator calls, optimal %v; want one call and an unproven labeling", c.name, rounds, sol.Optimal)
		case !c.dead && !c.inRound && (rounds == 0 || !sol.Optimal):
			t.Errorf("%s: %d separator calls, optimal %v; want cuts and a proven optimum", c.name, rounds, sol.Optimal)
		}
	}
}

// TestPortfolioNeverWorseThanSingles: on instances every engine can finish,
// the portfolio's objective must match or beat each single method — it
// returns the best of the race by construction.
func TestPortfolioNeverWorseThanSingles(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 6; trial++ {
		p := Problem{G: randomGraph(rng, 12, 0.3)}
		opts := Options{Gamma: 0.5}

		popts := opts
		popts.Method = MethodPortfolio
		port, err := solveWithin(10*time.Second, p, 2, popts)
		if err != nil {
			t.Fatalf("trial %d: portfolio: %v", trial, err)
		}
		for _, m := range []Method{MethodOCT, MethodMIP, MethodHeuristic} {
			sopts := opts
			sopts.Method = m
			single, err := solveWithin(10*time.Second, p, 2, sopts)
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
