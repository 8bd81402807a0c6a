package labeling

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// EngineReport is one engine's outcome in a MethodPortfolio race.
type EngineReport struct {
	Method    string        // engine name: heuristic, oct, mip
	Objective float64       // γ·S + (1−γ)·D of the engine's labeling; +Inf on failure
	Optimal   bool          // the engine proved its labeling optimal
	Elapsed   time.Duration // engine wall clock inside the race
	Winner    bool          // this engine produced the returned labeling
	Err       string        // non-empty when the engine failed
}

// sharedIncumbent is the portfolio's cross-engine objective bound: a
// lock-free monotonically decreasing float64. Engines publish finished
// labelings with offer; the MIP branch & bound polls get through
// ilp.Options.BestKnown to prune nodes that cannot beat a sibling.
type sharedIncumbent struct{ bits atomic.Uint64 }

func newSharedIncumbent() *sharedIncumbent {
	s := &sharedIncumbent{}
	s.bits.Store(math.Float64bits(math.Inf(1)))
	return s
}

func (s *sharedIncumbent) get() float64 { return math.Float64frombits(s.bits.Load()) }

func (s *sharedIncumbent) offer(v float64) {
	for {
		old := s.bits.Load()
		if v >= math.Float64frombits(old) {
			return
		}
		if s.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// solvePortfolio is the one engine race for every K. A fast polynomial
// engine runs first — the heuristic at K = 2, the fold heuristic (kfold)
// above — and seeds the shared incumbent and the MIP primer. The exact
// engines then race in goroutines: OCT and the Eq. 4 MIP at K = 2, the
// interval ILP (kmip) above. Any engine that finishes publishes its
// objective, so the MIP's branch & bound prunes against it mid-flight.
// The race ends when every engine returns, when one proves optimality
// (the rest are cancelled), or when ctx expires — each engine then unwinds
// with its best labeling so far, and the portfolio returns the best valid
// labeling seen, never an error. The winner's incumbent is closed against
// the tightest bound any engine proved, so the answer always carries a
// trace whose bound is at most its objective (DESIGN §5b).
func solvePortfolio(ctx context.Context, p Problem, k int, opts Options) (*Solution, error) {
	gamma := opts.Gamma
	shared := newSharedIncumbent()

	fits := func(s *Solution) bool {
		return (opts.MaxRows <= 0 || s.Stats.Rows <= opts.MaxRows) &&
			(opts.MaxCols <= 0 || s.Stats.Cols <= opts.MaxCols)
	}
	// better orders candidates: respect the dimension caps first, then the
	// objective, then proven optimality as the tie-break.
	better := func(a, b *Solution) bool {
		if fa, fb := fits(a), fits(b); fa != fb {
			return fa
		}
		oa, ob := a.Stats.Objective(gamma), b.Stats.Objective(gamma)
		return oa < ob-1e-9 || (oa <= ob+1e-9 && a.Optimal && !b.Optimal)
	}
	// bound is the tightest objective bound proven so far: the analytic
	// floor of S >= n, raised by each engine's closing trace bound, or by
	// its objective when it proved that optimal.
	bound := objectiveFloor(gamma, p.G.N(), k)
	prove := func(s *Solution) {
		if n := len(s.Trace); n > 0 && s.Trace[n-1].Bound > bound {
			bound = s.Trace[n-1].Bound
		}
		if obj := s.Stats.Objective(gamma); s.Optimal && obj > bound {
			bound = obj
		}
	}

	// The fast engine runs first, synchronously: it is polynomial and
	// near-instant relative to the exact engines.
	hStart := time.Now()
	heur := solveKHeuristic(p, k, opts)
	heur.Elapsed = time.Since(hStart)
	shared.offer(heur.Stats.Objective(gamma))
	reports := []EngineReport{{
		Method:    heur.Method,
		Objective: heur.Stats.Objective(gamma),
		Optimal:   heur.Optimal,
		Elapsed:   heur.Elapsed,
	}}

	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	type engine struct {
		name string
		run  func() (*Solution, error)
	}
	mip := func() (*Solution, error) { return solveMIP(raceCtx, p, k, opts, heur, shared.get) }
	engines := []engine{{"kmip", mip}}
	if k == 2 {
		oct := func() (*Solution, error) { return solveOCT(raceCtx, p, opts) }
		engines = []engine{{"oct", oct}, {"mip", mip}}
	}

	type engineResult struct {
		name    string
		sol     *Solution
		err     error
		elapsed time.Duration
	}
	results := make(chan engineResult, len(engines))
	var wg sync.WaitGroup
	for _, e := range engines {
		wg.Add(1)
		go func(e engine) {
			defer wg.Done()
			t0 := time.Now()
			sol, err := e.run()
			results <- engineResult{name: e.name, sol: sol, err: err, elapsed: time.Since(t0)}
		}(e)
	}

	best, bestName := heur, heur.Method
	for received := 0; received < len(engines); received++ {
		r := <-results
		rep := EngineReport{Method: r.name, Elapsed: r.elapsed, Objective: math.Inf(1)}
		if r.err != nil {
			rep.Err = r.err.Error()
		} else if Validate(p, k, r.sol.Lo, r.sol.Hi) == nil {
			rep.Objective = r.sol.Stats.Objective(gamma)
			rep.Optimal = r.sol.Optimal
			shared.offer(rep.Objective)
			prove(r.sol)
			if better(r.sol, best) {
				best, bestName = r.sol, r.name
			}
			if r.sol.Optimal && fits(r.sol) {
				// Provably optimal within the caps: the race is decided;
				// cancel the remaining engines so they unwind promptly.
				cancel()
			}
		}
		reports = append(reports, rep)
	}
	wg.Wait()

	for i := range reports {
		reports[i].Winner = reports[i].Method == bestName
	}
	obj := best.Stats.Objective(gamma)
	nodes := 0
	if n := len(best.Trace); n > 0 {
		nodes = best.Trace[n-1].Nodes
	}
	trace, gap := anytimeTrace(best.Trace, obj, math.Min(bound, obj), nodes)
	return &Solution{
		K: k, Lo: best.Lo, Hi: best.Hi,
		Stats:   best.Stats,
		Optimal: best.Optimal || gap <= 1e-9,
		Method:  "portfolio(" + bestName + ")",
		Trace:   trace,
		Engines: reports,

		ColdNodes: best.ColdNodes,
		Refactors: best.Refactors,
	}, nil
}
