package ilp

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// objectiveGrid returns g > 0 when every variable is integral and every
// objective coefficient is an integer multiple of g; otherwise 0.
func objectiveGrid(mod *Model) float64 {
	g := 0.0
	for j, c := range mod.obj {
		if zero(c) {
			continue
		}
		if mod.vtype[j] == Continuous {
			return 0
		}
		g = fgcd(g, math.Abs(c))
		if g < 1e-6 {
			return 0
		}
	}
	return g
}

func fgcd(a, b float64) float64 {
	for b > 1e-7 {
		a, b = b, math.Mod(a, b)
	}
	return a
}

// boundFix is one branching decision: variable v gets a new lower or upper
// bound.
type boundFix struct {
	v    int
	isUB bool
	val  float64
}

type bbNode struct {
	fixes  []boundFix
	basis  basisSnap // the parent's optimal basis, shared by both children; nil = solve cold
	bound  float64   // LP bound inherited from the parent
	depth  int
	seq    int // creation order; the root node is 0
	parent int // the parent's seq; -1 for the root node, whose basis is the root LP's
}

// nodeHeap orders open nodes best bound first and, among equal bounds,
// newest first. The objective grid makes equal bounds the common case, so
// the tie rule decides the search order: newest first pops a node's
// children right after it (a plunge), while its parent's factor is still
// in a slot.
type nodeHeap []*bbNode

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].bound < h[j].bound {
		return true
	}
	if h[j].bound < h[i].bound {
		return false
	}
	return h[i].seq > h[j].seq
}
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*bbNode)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// bbSearch is the shared state of the (possibly parallel) best-first
// branch & bound: a mutex-guarded node heap plus incumbent bookkeeping.
// Workers pop the globally best open node, solve its LP relaxation with
// the lock released, and push children / update the incumbent under the
// lock again. The proven global bound is the minimum over open nodes AND
// nodes currently in flight — children inherit bounds no smaller than
// their parent's, so that minimum (and with it the reported Bound and the
// trace) is nondecreasing regardless of worker interleaving. With one
// worker the search is exactly the serial algorithm; with N workers the
// result is deterministic modulo incumbent ties (equal-objective optima
// may differ, as may node counts when a time or node budget intervenes).
// Node LPs are reoptimized from the parent's basis by the dual simplex on
// a shared read-only lowering of the model (tmpl; see dual.go).
//
// The search keeps the factors of the two most recently branched nodes in
// slots. A popped node whose parent holds a slot installs that factor
// instead of reinverting its basis, which leaves its LP bit for bit as it
// would be otherwise (see rsLP.install). With newest-first ties most
// nodes are popped while their parent is in a slot, and the memory stays
// at two factors per search whatever the heap holds.
type bbSearch struct {
	mod            *Model
	opts           Options
	rootLB, rootUB []float64
	tmpl           *rsLP // root lowering shared by every warm node solve
	probe          *searchProbe
	ctx            context.Context
	start          time.Time
	snap           func(float64) float64

	mu          sync.Mutex
	cond        *sync.Cond
	h           nodeHeap
	inFlight    map[int]float64 // worker id → bound of the node it is expanding
	seq         int
	nodes       int
	iters       int
	refactors   int // simplex reinversions over all node LP solves
	slots       [2]factorSlot
	coldNodes   int // node LPs solved without a usable parent basis
	incumbent   float64
	incumbentX  []float64
	prunedFloor float64
	globalBound float64
	timedOut    bool
	unbounded   bool
	done        bool
	trace       []TraceEvent
}

// factorSlot is a branched node's factor, keyed by the node's seq.
type factorSlot struct {
	seq int
	f   *factor
}

// searchProbe lets a test watch and steer one search: its worker count,
// a node budget and its factor reuse.
type searchProbe struct {
	workers  int  // branch & bound workers; zero means defaultWorkers()
	maxNodes int  // stop after this many node expansions; zero = no limit
	noReuse  bool // keep the slots empty
	// served, when set, is called under the search lock for each node
	// that installs a slot's factor, with the node's bounds.
	served func(node *bbNode, lbs, ubs []float64, f *factor)
}

// keepLocked puts node seq's factor in the newer slot and drops the older
// one's. Callers hold s.mu.
func (s *bbSearch) keepLocked(seq int, f *factor) {
	if f == nil || (s.probe != nil && s.probe.noReuse) {
		return
	}
	s.slots[1], s.slots[0] = s.slots[0], factorSlot{seq: seq, f: f}
}

// slotLocked returns node seq's factor if a slot holds it, else nil.
// Callers hold s.mu.
func (s *bbSearch) slotLocked(seq int) *factor {
	for _, sl := range s.slots {
		if sl.f != nil && sl.seq == seq {
			return sl.f
		}
	}
	return nil
}

func (s *bbSearch) applyFixes(fixes []boundFix) ([]float64, []float64) {
	lbs := append([]float64(nil), s.rootLB...)
	ubs := append([]float64(nil), s.rootUB...)
	for _, f := range fixes {
		if f.isUB {
			if f.val < ubs[f.v] {
				ubs[f.v] = f.val
			}
		} else if f.val > lbs[f.v] {
			lbs[f.v] = f.val
		}
	}
	return lbs, ubs
}

// traceLocked appends a convergence sample; callers hold s.mu.
func (s *bbSearch) traceLocked() {
	s.trace = append(s.trace, TraceEvent{
		Elapsed:   time.Since(s.start),
		Incumbent: s.incumbent,
		Bound:     s.globalBound,
		Gap:       relGap(s.incumbent, s.globalBound),
		Nodes:     s.nodes,
	})
}

// openMinLocked returns the smallest bound among the just-popped node and
// every node another worker is still expanding — the proven lower bound on
// any solution the remaining search could uncover. Callers hold s.mu.
func (s *bbSearch) openMinLocked(popped float64) float64 {
	min := popped
	for _, b := range s.inFlight {
		if b < min {
			min = b
		}
	}
	return min
}

// finishLocked marks the search done and wakes every worker.
func (s *bbSearch) finishLocked() {
	s.done = true
	s.cond.Broadcast()
}

// worker runs the best-first loop until the search finishes. It returns
// with s.mu released.
func (s *bbSearch) worker(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for !s.done && len(s.h) == 0 && len(s.inFlight) > 0 {
			s.cond.Wait()
		}
		if s.done {
			return
		}
		if len(s.h) == 0 {
			// Nothing open and nothing in flight: search exhausted.
			s.finishLocked()
			return
		}
		if expired(s.ctx) || (s.probe != nil && s.probe.maxNodes > 0 && s.nodes >= s.probe.maxNodes) {
			s.timedOut = true
			s.finishLocked()
			return
		}
		// The pruning cutoff is the better of our incumbent and any
		// externally shared one (e.g. a portfolio sibling's labeling).
		cutoff := s.incumbent
		externalCut := false
		if s.opts.BestKnown != nil {
			if b := s.opts.BestKnown(); b < cutoff {
				cutoff, externalCut = b, true
			}
		}
		node := heap.Pop(&s.h).(*bbNode)
		if node.bound >= cutoff-1e-9 {
			// Cannot beat the cutoff; discard. Subtrees pruned against an
			// *external* incumbent below our own may hide solutions better
			// than ours, so prunedFloor caps the proven bound there.
			if externalCut && node.bound < s.incumbent-1e-9 {
				if node.bound < s.prunedFloor {
					s.prunedFloor = node.bound
				}
				if node.bound > s.globalBound {
					s.globalBound = node.bound
				}
			}
			continue
		}
		if om := s.openMinLocked(node.bound); om > s.globalBound {
			s.globalBound = om
			s.traceLocked()
		}
		s.nodes++
		s.inFlight[id] = node.bound
		lbs, ubs := s.applyFixes(node.fixes)
		f := s.slotLocked(node.parent)
		if f != nil && s.probe != nil && s.probe.served != nil {
			s.probe.served(node, lbs, ubs, f)
		}
		s.mu.Unlock()
		res, cold, lpErr := s.solveNode(node, f, lbs, ubs)
		s.mu.Lock()
		delete(s.inFlight, id)
		s.cond.Broadcast()
		s.iters += res.iters
		s.refactors += res.refactors
		if cold {
			s.coldNodes++
		}
		if lpErr != nil {
			// Time limit or numerical trouble on one node: put it back so
			// the reported global bound stays honest, then stop.
			heap.Push(&s.h, node)
			s.timedOut = true
			s.finishLocked()
			return
		}
		if res.status == StatusInfeasible {
			continue
		}
		if res.status == StatusUnbounded {
			s.unbounded = true
			s.finishLocked()
			return
		}
		obj := s.snap(res.obj)
		// Re-read the cutoff: a sibling may have improved the incumbent
		// while this node's LP was solving.
		cutoff = s.incumbent
		if s.opts.BestKnown != nil {
			if b := s.opts.BestKnown(); b < cutoff {
				cutoff = b
			}
		}
		if obj >= cutoff-1e-9 {
			if obj < s.incumbent-1e-9 && obj < s.prunedFloor {
				s.prunedFloor = obj
			}
			continue
		}
		// Find the most fractional integer variable.
		branchVar, frac := -1, 0.0
		for j := 0; j < s.mod.NumVars(); j++ {
			if s.mod.vtype[j] == Continuous {
				continue
			}
			f := math.Abs(res.x[j] - math.Round(res.x[j]))
			if f > 1e-6 && f > frac {
				branchVar, frac = j, f
			}
		}
		if branchVar < 0 {
			// Integral solution: new incumbent.
			xi := roundIntegral(s.mod, res.x)
			if err := s.mod.Feasible(xi, 1e-5, false); err == nil {
				if o := s.mod.Objective(xi); o < s.incumbent-1e-9 {
					s.incumbent = o
					s.incumbentX = xi
					s.traceLocked()
				}
			}
			continue
		}
		down := append(append([]boundFix(nil), node.fixes...),
			boundFix{v: branchVar, isUB: true, val: math.Floor(res.x[branchVar])})
		up := append(append([]boundFix(nil), node.fixes...),
			boundFix{v: branchVar, isUB: false, val: math.Ceil(res.x[branchVar])})
		s.seq++
		heap.Push(&s.h, &bbNode{fixes: down, basis: res.basis, bound: obj, depth: node.depth + 1, seq: s.seq, parent: node.seq})
		s.seq++
		heap.Push(&s.h, &bbNode{fixes: up, basis: res.basis, bound: obj, depth: node.depth + 1, seq: s.seq, parent: node.seq})
		s.keepLocked(node.seq, res.factor)
		s.cond.Broadcast()
	}
}

// solveNode solves a node's LP relaxation: warm from the parent's basis
// (and its factor f, when a slot held it) when the node carries one,
// otherwise cold (see reoptimize).
func (s *bbSearch) solveNode(node *bbNode, f *factor, lbs, ubs []float64) (res lpResult, cold bool, err error) {
	return reoptimize(s.ctx, s.tmpl, s.mod, lbs, ubs, node.basis, f)
}

// reoptimize solves mod's LP relaxation under bounds lbs/ubs warm on its
// lowering t, from basis snap and its factor f (either may be nil), or —
// with no basis, or when the warm path fails numerically — cold with
// solveLP. cold reports that the cold path produced the result. A time
// limit inside the warm path is returned as is, and so is any error of
// the cold solve.
func reoptimize(ctx context.Context, t *rsLP, mod *Model, lbs, ubs []float64, snap basisSnap, f *factor) (res lpResult, cold bool, err error) {
	var warm lpResult
	if snap != nil {
		res, err = t.solveWarm(ctx, lbs, ubs, snap, f)
		if err == nil || errors.Is(err, errTimeLimit) {
			return res, false, err
		}
		warm = res
	}
	res, err = solveLP(ctx, mod, lbs, ubs)
	res.iters += warm.iters
	res.refactors += warm.refactors
	// A cold solve lowers the model under its own bounds, which may
	// negate rows differently from t: its factor is not t's.
	res.factor = nil
	return res, true, err
}

// solveRoot lowers mod under bounds lbs/ubs once and solves the root LP
// as a warm node of that lowering whose parent basis is the slack basis,
// by the dual simplex (see reoptimize: cold when the slack basis is not
// dual feasible or the warm solve fails). It returns the lowering, which
// becomes the template of the search's nodes.
func solveRoot(ctx context.Context, mod *Model, lbs, ubs []float64) (t *rsLP, res lpResult, cold bool, err error) {
	if t, err = lowerSparse(mod, lbs, ubs); err != nil {
		return nil, lpResult{}, false, err
	}
	res, cold, err = reoptimize(ctx, t, mod, lbs, ubs, t.slackBasis(), nil)
	return t, res, cold, err
}

// SolveContext minimizes the model by LP-based best-first branch & bound.
// It never returns an invalid incumbent: Solution.X (when Status is Optimal
// or Feasible) satisfies all constraints and integrality. ctx is the only
// budget: once it is cancelled or past its deadline, the search stops at
// the next simplex iteration or node expansion and returns the best
// incumbent found so far. A context that is already dead on entry returns
// (nil, ctx.Err()) without touching the model. Node expansion runs on
// defaultWorkers() workers (see bbSearch).
func SolveContext(ctx context.Context, mod *Model, opts Options) (*Solution, error) {
	return solve(ctx, mod, opts, nil)
}

// solve is SolveContext with an optional test probe on the search.
func solve(ctx context.Context, mod *Model, opts Options, probe *searchProbe) (*Solution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()

	sol := &Solution{Status: StatusNoSolution, Obj: math.Inf(1), Bound: math.Inf(-1)}
	incumbent := math.Inf(1)
	var incumbentX []float64
	if opts.Incumbent != nil {
		if err := mod.Feasible(opts.Incumbent, feasTol, false); err == nil {
			incumbentX = append([]float64(nil), opts.Incumbent...)
			incumbent = mod.Objective(incumbentX)
		}
	}

	// Root relaxation: the dual simplex from the slack basis.
	rootLB := append([]float64(nil), mod.lb...)
	rootUB := append([]float64(nil), mod.ub...)
	tmpl, res, _, err := solveRoot(ctx, mod, rootLB, rootUB)
	if err != nil {
		if errors.Is(err, errTimeLimit) && incumbentX != nil {
			sol.Status = StatusFeasible
			sol.X, sol.Obj = incumbentX, incumbent
			sol.Gap = 1
			sol.Elapsed = time.Since(start)
			sol.Trace = append(sol.Trace, TraceEvent{
				Elapsed: sol.Elapsed, Incumbent: incumbent, Bound: sol.Bound,
				Gap: relGap(incumbent, sol.Bound),
			})
			return sol, nil
		}
		if errors.Is(err, errTimeLimit) {
			sol.Elapsed = time.Since(start)
			sol.Gap = 1
			return sol, nil
		}
		return nil, fmt.Errorf("root relaxation: %w", err)
	}
	// Objective granularity: with all variables integral and every
	// objective coefficient a multiple of g, any feasible objective lies
	// on the g-grid, so LP bounds round up to the next grid point.
	grid := objectiveGrid(mod)
	snap := func(v float64) float64 {
		if grid <= 0 {
			return v
		}
		return math.Ceil(v/grid-1e-7) * grid
	}
	sol.Iters += res.iters
	sol.Refactors += res.refactors
	switch res.status {
	case StatusInfeasible:
		if incumbentX != nil {
			// The provided incumbent is feasible, so the model cannot be
			// infeasible; treat as numerical trouble and keep the incumbent.
			sol.Status = StatusFeasible
			sol.X, sol.Obj, sol.Bound = incumbentX, incumbent, math.Inf(-1)
			sol.Gap = 1
			sol.Elapsed = time.Since(start)
			return sol, nil
		}
		sol.Status = StatusInfeasible
		sol.Elapsed = time.Since(start)
		return sol, nil
	case StatusUnbounded:
		sol.Status = StatusUnbounded
		sol.Elapsed = time.Since(start)
		return sol, nil
	}
	if opts.Separate != nil {
		closed := func(obj float64) bool { return snap(obj) >= incumbent-1e-9 }
		mod, tmpl, res = separateRoot(ctx, mod, tmpl, res, rootLB, rootUB, opts.Separate, closed, sol)
	}
	res.obj = snap(res.obj)

	// tmpl is the read-only template every node reoptimizes on. It is the
	// very lowering the root LP was solved on, so the root's optimal basis
	// (res.basis) warm-starts the first node and its factor (res.factor,
	// in the slot of seq -1) spares that node's reinversion. With cuts,
	// mod and tmpl are the cut model and its lowering, which the nodes,
	// the slots and the incumbent checks all share.
	s := &bbSearch{
		mod: mod, opts: opts,
		rootLB: rootLB, rootUB: rootUB, tmpl: tmpl, probe: probe,
		ctx: ctx, start: start, snap: snap,
		inFlight:    make(map[int]float64),
		incumbent:   incumbent,
		incumbentX:  incumbentX,
		prunedFloor: math.Inf(1),
		globalBound: res.obj,
	}
	s.cond = sync.NewCond(&s.mu)
	heap.Init(&s.h)
	heap.Push(&s.h, &bbNode{basis: res.basis, bound: res.obj, seq: 0, parent: -1})
	s.keepLocked(-1, res.factor)
	s.traceLocked()

	workers := defaultWorkers()
	if probe != nil && probe.workers > 0 {
		workers = probe.workers
	}
	var wg sync.WaitGroup
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s.worker(id)
		}(id)
	}
	wg.Wait()

	// All state is ours again: fold the search outcome into the solution,
	// with the exact bound bookkeeping of the serial algorithm.
	incumbent, incumbentX = s.incumbent, s.incumbentX
	globalBound := s.globalBound
	sol.ColdNodes = s.coldNodes
	sol.Refactors += s.refactors
	if s.unbounded {
		sol.Status = StatusUnbounded
		sol.Nodes = s.nodes
		sol.Iters += s.iters
		sol.Elapsed = time.Since(start)
		return sol, nil
	}
	if !s.timedOut && len(s.h) == 0 {
		// Search exhausted: the incumbent (if any) is optimal, unless
		// subtrees were pruned against an external bound (prunedFloor caps
		// the proven bound below).
		if incumbentX != nil {
			globalBound = incumbent
		}
	} else if len(s.h) > 0 {
		if top := s.h[0].bound; top > globalBound {
			globalBound = top
		}
	}
	if globalBound > s.prunedFloor {
		globalBound = s.prunedFloor
	}
	sol.Nodes = s.nodes
	sol.Iters += s.iters
	sol.Bound = globalBound
	sol.Elapsed = time.Since(start)
	sol.Trace = append(sol.Trace, s.trace...)
	endTrace := func() {
		sol.Trace = append(sol.Trace, TraceEvent{
			Elapsed:   time.Since(start),
			Incumbent: incumbent,
			Bound:     sol.Bound,
			Gap:       relGap(incumbent, sol.Bound),
			Nodes:     s.nodes,
		})
	}
	if incumbentX == nil {
		if !s.timedOut && len(s.h) == 0 && math.IsInf(s.prunedFloor, 1) {
			// Search exhausted without any integral solution: infeasible.
			sol.Status = StatusInfeasible
		} else {
			sol.Status = StatusNoSolution
			sol.Gap = 1
		}
		endTrace()
		return sol, nil
	}
	sol.X = incumbentX
	sol.Obj = incumbent
	sol.Gap = relGap(incumbent, globalBound)
	if !s.timedOut && sol.Gap <= 1e-9 {
		sol.Status = StatusOptimal
		sol.Bound = incumbent
		sol.Gap = 0
	} else {
		sol.Status = StatusFeasible
	}
	endTrace()
	return sol, nil
}

// maxCutRounds caps the separation rounds at the root.
const maxCutRounds = 2

// separateRoot runs the root's cut rounds. Each round hands the root LP's
// solution to sep, adds the rows it returns to a copy of mod, lowers the
// copy and reoptimizes from the last optimal basis with the new rows'
// slacks basic, which keeps that basis dual feasible (see extendBasis).
// The rounds stop when sep returns nothing, when closed reports that the
// root bound already ends the search, or after maxCutRounds. A round
// whose LP fails, is not optimal or runs out of time is dropped, and the
// search goes on from the last root solved, with its bound and basis
// (DESIGN §5b). It returns the model with the kept cuts, its lowering and
// the root LP solved on it; every round's work is counted in sol.
func separateRoot(ctx context.Context, mod *Model, t *rsLP, res lpResult, lbs, ubs []float64,
	sep func(x []float64) []Constraint, closed func(obj float64) bool, sol *Solution) (*Model, *rsLP, lpResult) {
	for round := 0; round < maxCutRounds && !closed(res.obj); round++ {
		cuts := sep(res.x)
		if len(cuts) == 0 {
			break
		}
		cm := mod.withRows(cuts)
		ct, err := lowerSparse(cm, lbs, ubs)
		if err != nil {
			break
		}
		r, _, err := reoptimize(ctx, ct, cm, lbs, ubs, ct.extendBasis(t, res.basis), nil)
		sol.Iters += r.iters
		sol.Refactors += r.refactors
		if err != nil || r.status != StatusOptimal {
			break
		}
		mod, t, res = cm, ct, r
	}
	return mod, t, res
}

// roundIntegral snaps near-integral integer variables exactly.
func roundIntegral(mod *Model, x []float64) []float64 {
	out := append([]float64(nil), x...)
	for j := range out {
		if mod.vtype[j] != Continuous {
			out[j] = math.Round(out[j])
		}
	}
	return out
}
