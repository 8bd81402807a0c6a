// Package labeling solves COMPACT's VH-labeling problem (Section V-B of
// the paper): assign every node of an undirected graph a label V (vertical
// bitline), H (horizontal wordline), or VH (both) such that no edge joins
// two V nodes or two H nodes, minimizing the weighted objective
// γ·S + (1−γ)·D where S is the crossbar semiperimeter (= n + #VH) and D
// the maximum dimension (= max(rows, cols)).
//
// Three solvers are provided:
//
//   - MethodOCT (Section VI-A): minimum odd cycle transversal via vertex
//     cover of G □ K2, then 2-coloring — provably minimal semiperimeter.
//   - MethodMIP (Section VI-B): the full Eq. 4 MIP, including the Eq. 7
//     alignment constraints, solved by the internal branch & bound.
//   - MethodHeuristic: greedy bipartization plus balancing, for graphs
//     beyond exact reach.
//   - MethodPortfolio: a concurrent anytime race of the three — the
//     heuristic's bound warm-starts the exact engines, incumbents are
//     shared, and the best labeling wins when the budget expires.
//
// Every solver is deadline-honest: SolveContext derives one shared
// context deadline from Options.TimeLimit, and all sub-solves (including
// the MIP's OCT warm start) spend from that single budget.
package labeling

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"compact/internal/graph"
	"compact/internal/ilp"
	"compact/internal/invariant"
	"compact/internal/oct"
)

// Label is a node's crossbar-side assignment.
type Label uint8

// Node labels. Unlabeled only appears in invalid solutions.
const (
	Unlabeled Label = iota
	V               // vertical bitline only
	H               // horizontal wordline only
	VH              // both a wordline and a bitline
)

func (l Label) String() string {
	switch l {
	case V:
		return "V"
	case H:
		return "H"
	case VH:
		return "VH"
	}
	return "?"
}

// HasH reports whether the label includes a wordline.
func (l Label) HasH() bool { return l == H || l == VH }

// HasV reports whether the label includes a bitline.
func (l Label) HasV() bool { return l == V || l == VH }

// Problem is a VH-labeling instance.
type Problem struct {
	// G is the undirected graph derived from the BDD (0-terminal removed).
	G *graph.Graph
	// AlignH lists nodes that must receive at least an H label (the
	// paper's Eq. 7: function outputs/roots and the 1-terminal input).
	AlignH []int
}

// Stats are the crossbar dimensions implied by a labeling.
type Stats struct {
	Rows int // #H + #VH
	Cols int // #V + #VH
	S    int // semiperimeter = Rows + Cols
	D    int // max dimension = max(Rows, Cols)
}

// Objective evaluates γ·S + (1−γ)·D.
func (s Stats) Objective(gamma float64) float64 {
	return gamma*float64(s.S) + (1-gamma)*float64(s.D)
}

// ComputeStats derives crossbar dimensions from a labeling.
func ComputeStats(labels []Label) Stats {
	var st Stats
	for _, l := range labels {
		if l.HasH() {
			st.Rows++
		}
		if l.HasV() {
			st.Cols++
		}
	}
	st.S = st.Rows + st.Cols
	st.D = st.Rows
	if st.Cols > st.D {
		st.D = st.Cols
	}
	return st
}

// Validate checks that labels solve the problem: every node labeled, no
// V–V or H–H edge, and all alignment nodes carry an H.
func Validate(p Problem, labels []Label) error {
	if len(labels) != p.G.N() {
		return fmt.Errorf("labeling: %d labels for %d nodes", len(labels), p.G.N())
	}
	for v, l := range labels {
		if l == Unlabeled {
			return fmt.Errorf("labeling: node %d unlabeled", v)
		}
	}
	for _, e := range p.G.Edges() {
		lu, lv := labels[e[0]], labels[e[1]]
		ok := (lu.HasH() && lv.HasV()) || (lu.HasV() && lv.HasH())
		if !ok {
			return fmt.Errorf("labeling: edge (%d,%d) with labels %s–%s unrealizable", e[0], e[1], lu, lv)
		}
	}
	for _, v := range p.AlignH {
		if !labels[v].HasH() {
			return fmt.Errorf("labeling: alignment node %d labeled %s, needs H", v, labels[v])
		}
	}
	return nil
}

// Method selects the solver.
type Method uint8

// Solver methods.
const (
	MethodAuto      Method = iota // MIP when small enough, else heuristic
	MethodOCT                     // Section VI-A (γ=1 semantics)
	MethodMIP                     // Section VI-B (weighted objective)
	MethodHeuristic               // greedy bipartization + balancing
	MethodPortfolio               // concurrent anytime race of the above
)

func (m Method) String() string {
	switch m {
	case MethodOCT:
		return "oct"
	case MethodMIP:
		return "mip"
	case MethodHeuristic:
		return "heuristic"
	case MethodPortfolio:
		return "portfolio"
	default:
		return "auto"
	}
}

// Options tunes SolveContext.
type Options struct {
	// Gamma weighs semiperimeter vs maximum dimension in [0,1]; the
	// paper's default (and this package's, when unset via UseGamma) is 1
	// for MethodOCT and 0.5 for the others.
	Gamma float64
	// Method selects the solver (default MethodAuto).
	Method Method
	// TimeLimit bounds the whole solve: it becomes a deadline on one
	// context shared by every sub-solver (OCT warm start, MIP, portfolio
	// engines), so the total wall clock never exceeds the budget. Expired
	// limits degrade to the best feasible labeling found (never to an
	// invalid one).
	TimeLimit time.Duration
	// OCTBackend selects the exact OCT engine, both for MethodOCT and for
	// the OCT warm start (incumbent and S >= n+k* cut) of MethodMIP: the
	// default odd-cycle branch & bound on G, or Lemma 1's vertex cover of
	// G □ K2 as an ILP.
	OCTBackend oct.Backend
	// AutoExactLimit is the maximum node count for which MethodAuto picks
	// an exact solver (default 600).
	AutoExactLimit int
	// UseEdgeHelpers reproduces the paper's literal Eq. 4 MIP with one
	// binary orientation helper per edge. The default formulation encodes
	// the same disjunction directly as x_i^V + x_j^V >= 1 and
	// x_i^H + x_j^H >= 1 per edge (provably equivalent: exactly the
	// V-only/V-only and H-only/H-only label pairs are excluded), which is
	// smaller and solves much faster — kept as an ablation knob.
	UseEdgeHelpers bool
	// MaxRows/MaxCols cap the crossbar dimensions (0 = unconstrained),
	// the Section III extension: SolveContext returns ErrInfeasible when no
	// valid labeling fits the budget. Only MethodMIP enforces these
	// exactly; the other methods reject their result if it violates them.
	MaxRows, MaxCols int
}

// ErrInfeasible reports that no valid labeling satisfies the requested
// row/column budget (Options.MaxRows / Options.MaxCols).
var ErrInfeasible = errors.New("labeling: row/column constraints are infeasible")

// maxTableauBytes bounds the LP tableau the MIP labeler may allocate;
// larger models use the analytic-bound fallback (see solveMIP).
const maxTableauBytes = int64(1) << 30

// Solution is a valid labeling plus solve metadata.
type Solution struct {
	Labels  []Label
	Stats   Stats
	Optimal bool   // proven optimal for the chosen objective
	Method  string // solver that produced the labeling
	Elapsed time.Duration
	// Trace carries the MIP convergence samples (Figure 10/11 data);
	// empty for non-MIP methods. For MethodPortfolio it is the winning
	// engine's trace.
	Trace []ilp.TraceEvent
	// ColdNodes and DenseFallbacks carry the MIP branch & bound's
	// ilp.Solution counters of the same names (zero when no MIP ran): node
	// LPs solved from scratch instead of warm from the parent's basis, and
	// LP solves where the sparse simplex fell back to the dense tableau.
	ColdNodes, DenseFallbacks int
	// Engines reports the per-engine outcome of a MethodPortfolio race
	// (which engine won, each engine's objective and elapsed time); nil for
	// the single-engine methods.
	Engines []EngineReport
}

// SolveContext computes a VH-labeling of p. Options.TimeLimit
// becomes a deadline on one context shared by every sub-solver — the OCT
// warm start, the MIP branch & bound (checked inside simplex pivots) and
// the portfolio engines all spend from the same budget, so the total wall
// clock cannot exceed it by more than one pivot. When the budget or ctx
// expires mid-solve, the best valid labeling found so far is returned
// (never an error); a context that is already dead on entry returns
// (nil, ctx.Err()) promptly.
func SolveContext(ctx context.Context, p Problem, opts Options) (*Solution, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.TimeLimit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.TimeLimit)
		defer cancel()
	}
	if opts.AutoExactLimit <= 0 {
		opts.AutoExactLimit = 600
	}
	// Provable early infeasibility: every valid labeling has semiperimeter
	// S = Rows + Cols = n + #VH >= n, so when both caps are set and the
	// graph alone exceeds their sum, no solver can succeed — refute in
	// O(1) instead of burning the budget on a doomed search. This is what
	// makes partitioned synthesis affordable: each failed piece attempt
	// costs a BDD build, not an exact-solver timeout.
	if opts.MaxRows > 0 && opts.MaxCols > 0 && p.G.N() > opts.MaxRows+opts.MaxCols {
		return nil, fmt.Errorf("labeling: %d graph nodes force semiperimeter >= %d, budget %dx%d allows %d: %w",
			p.G.N(), p.G.N(), opts.MaxRows, opts.MaxCols, opts.MaxRows+opts.MaxCols, ErrInfeasible)
	}
	method := opts.Method
	if method == MethodAuto {
		if p.G.N() <= opts.AutoExactLimit {
			method = MethodMIP
		} else {
			// The OCT route scales far beyond the MIP: its odd-cycle
			// branch & bound starts from the greedy OCT and, when the
			// time limit bites, returns the best OCT found so far —
			// never worse than the plain heuristic labeler.
			method = MethodOCT
		}
	}
	var sol *Solution
	var err error
	switch method {
	case MethodOCT:
		sol, err = solveOCT(ctx, p, opts)
	case MethodMIP:
		sol, err = solveMIP(ctx, p, opts, nil, nil)
	case MethodHeuristic:
		sol = solveHeuristic(p, opts)
	case MethodPortfolio:
		sol, err = solvePortfolio(ctx, p, opts)
	default:
		return nil, fmt.Errorf("labeling: unknown method %v", method)
	}
	if err != nil {
		return nil, err
	}
	sol.Elapsed = time.Since(start)
	if err := Validate(p, sol.Labels); err != nil {
		return nil, fmt.Errorf("labeling: solver %s produced invalid labeling: %w", sol.Method, err)
	}
	hasH := func(v int) bool { return sol.Labels[v].HasH() }
	hasV := func(v int) bool { return sol.Labels[v].HasV() }
	if err := invariant.EdgesSpanHV(p.G, hasH, hasV); err != nil {
		return nil, fmt.Errorf("labeling: solver %s: %w", sol.Method, err)
	}
	vh := 0
	for _, l := range sol.Labels {
		if l == VH {
			vh++
		}
	}
	if err := invariant.Semiperimeter(p.G.N(), vh, sol.Stats.S); err != nil {
		return nil, fmt.Errorf("labeling: solver %s: %w", sol.Method, err)
	}
	if (opts.MaxRows > 0 && sol.Stats.Rows > opts.MaxRows) ||
		(opts.MaxCols > 0 && sol.Stats.Cols > opts.MaxCols) {
		// Non-MIP methods do not optimize under dimension budgets; their
		// result simply failed the caps (the budget may still be feasible
		// via MethodMIP). The MIP path returns ErrInfeasible directly on
		// proven infeasibility before reaching here.
		return nil, fmt.Errorf("labeling: %s result %dx%d exceeds budget %dx%d: %w",
			sol.Method, sol.Stats.Rows, sol.Stats.Cols, opts.MaxRows, opts.MaxCols, ErrInfeasible)
	}
	return sol, nil
}

// solveOCT implements Section VI-A: minimum OCT → VH labels; residual
// 2-coloring → V/H, oriented per component to honor alignment and balance
// the dimensions (the paper's Figure 6 optimization). Optimality refers to
// the semiperimeter (γ=1 objective) on instances without alignment
// conflicts; alignment patches may add VH labels. The time budget rides on
// ctx (set up by SolveContext); a budget that dies mid-search degrades to
// the greedy OCT rather than erroring.
func solveOCT(ctx context.Context, p Problem, opts Options) (*Solution, error) {
	res, err := oct.FindContext(ctx, p.G, oct.Options{Backend: opts.OCTBackend})
	if err != nil {
		if ctx.Err() == nil {
			return nil, err
		}
		// The shared budget expired before the OCT search even started
		// (FindContext entry check): anytime contract says degrade, not
		// error. The greedy OCT is polynomial and always valid.
		res = oct.Heuristic(p.G)
	}
	labels, upgrades := orientAndBalance(p, res)
	st := ComputeStats(labels)
	// The method proves minimality of S (= n + k*) when the OCT is proven
	// and no alignment upgrades were needed. For γ < 1 the objective also
	// involves D; the result is additionally optimal when D meets the
	// analytic floor ⌈S/2⌉ (then γS + (1−γ)D equals the valid lower bound
	// γ(n+k*) + (1−γ)⌈(n+k*)/2⌉ for every γ).
	gamma := opts.Gamma
	optimal := res.Optimal && upgrades == 0 && (gamma >= 1 || st.D == (st.S+1)/2)
	return &Solution{
		Labels:  labels,
		Stats:   st,
		Optimal: optimal,
		Method:  "oct",
	}, nil
}

// solveHeuristic uses the greedy OCT plus the same orientation/balancing.
func solveHeuristic(p Problem, opts Options) *Solution {
	res := oct.Heuristic(p.G)
	labels, _ := orientAndBalance(p, res)
	return &Solution{
		Labels: labels,
		Stats:  ComputeStats(labels),
		Method: "heuristic",
	}
}

// orientAndBalance converts an OCT + residual 2-coloring into labels:
// OCT nodes become VH; each residual component's two color classes are
// assigned H/V choosing, per component, the orientation that (1) minimizes
// alignment violations and (2) balances rows vs columns. Remaining
// alignment violators are upgraded to VH. Returns the labels and the
// number of upgrades.
func orientAndBalance(p Problem, res oct.Result) ([]Label, int) {
	n := p.G.N()
	labels := make([]Label, n)
	for v := range res.OCT {
		labels[v] = VH
	}
	alignSet := make(map[int]bool, len(p.AlignH))
	for _, v := range p.AlignH {
		alignSet[v] = true
	}

	// Components of the residual graph, walked directly on G.
	compID := make([]int, n)
	for i := range compID {
		compID[i] = -1
	}
	type compInfo struct {
		side0, side1   []int // members by res.Side
		align0, align1 int   // alignment nodes per side
	}
	var comps []*compInfo
	for s := 0; s < n; s++ {
		if compID[s] >= 0 || res.OCT[s] {
			continue
		}
		ci := &compInfo{}
		id := len(comps)
		stack := []int{s}
		compID[s] = id
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if res.Side[u] == 0 {
				ci.side0 = append(ci.side0, u)
				if alignSet[u] {
					ci.align0++
				}
			} else {
				ci.side1 = append(ci.side1, u)
				if alignSet[u] {
					ci.align1++
				}
			}
			for _, w := range p.G.Adj(u) {
				if compID[w] < 0 && !res.OCT[w] {
					compID[w] = id
					stack = append(stack, w)
				}
			}
		}
		comps = append(comps, ci)
	}

	// Rows/cols contributed by the VH set.
	rows, cols := len(res.OCT), len(res.OCT)
	upgrades := 0
	// First pass: components with an alignment preference get the
	// orientation minimizing upgrades (ties deferred to balancing).
	type choice struct {
		ci     *compInfo
		forced int // 0: side0->H, 1: side1->H, -1: free
	}
	var choices []choice
	for _, ci := range comps {
		switch {
		case ci.align0 > ci.align1:
			choices = append(choices, choice{ci, 0})
		case ci.align1 > ci.align0:
			choices = append(choices, choice{ci, 1})
		case ci.align0 > 0: // equal and nonzero: either way same upgrades
			choices = append(choices, choice{ci, -1})
		default:
			choices = append(choices, choice{ci, -1})
		}
	}
	apply := func(ci *compInfo, hSide int) {
		var hs, vs []int
		if hSide == 0 {
			hs, vs = ci.side0, ci.side1
		} else {
			hs, vs = ci.side1, ci.side0
		}
		for _, v := range hs {
			labels[v] = H
		}
		for _, v := range vs {
			if alignSet[v] {
				labels[v] = VH // alignment violator upgraded
				upgrades++
			} else {
				labels[v] = V
			}
		}
		rows += len(hs)
		cols += len(vs)
		// Upgraded nodes count on both sides.
		for _, v := range vs {
			if alignSet[v] {
				rows++
			}
		}
	}
	// Forced components first.
	var free []*compInfo
	for _, c := range choices {
		if c.forced >= 0 {
			apply(c.ci, c.forced)
		} else {
			free = append(free, c.ci)
		}
	}
	// Free components: largest imbalance first, always putting the larger
	// class on the currently smaller dimension.
	sort.Slice(free, func(i, j int) bool {
		di := abs(len(free[i].side0) - len(free[i].side1))
		dj := abs(len(free[j].side0) - len(free[j].side1))
		if di != dj {
			return di > dj
		}
		return len(free[i].side0)+len(free[i].side1) > len(free[j].side0)+len(free[j].side1)
	})
	for _, ci := range free {
		// Account for forced upgrades identically in both orientations.
		r0, c0 := rows+len(ci.side0)+ci.align1, cols+len(ci.side1)
		r1, c1 := rows+len(ci.side1)+ci.align0, cols+len(ci.side0)
		if maxDimAfter(r0, c0) <= maxDimAfter(r1, c1) {
			apply(ci, 0)
		} else {
			apply(ci, 1)
		}
	}
	return labels, upgrades
}

// ctxRemaining returns the time left on ctx's deadline (clamped at 0), or
// 0 when ctx has no deadline.
func ctxRemaining(ctx context.Context) time.Duration {
	if d, ok := ctx.Deadline(); ok {
		if r := time.Until(d); r > 0 {
			return r
		}
		return 0
	}
	return 0
}

func maxDimAfter(r, c int) int {
	if r > c {
		return r
	}
	return c
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// solveMIP implements Section VI-B: the Eq. 4 MIP with Eq. 7 alignment,
// solved by the internal branch & bound, primed with the heuristic
// labeling as incumbent. The whole solve — OCT warm start included —
// spends from the single deadline carried by ctx, so the user's budget is
// never exceeded (the warm start used to get TimeLimit/2 and the MIP the
// full TimeLimit again; with one shared deadline that double-spend is
// impossible by construction). primer, when non-nil, is a valid labeling
// used as the incumbent instead of recomputing the heuristic; bestKnown,
// when non-nil, feeds a live external objective bound into the branch &
// bound (portfolio incumbent sharing).
func solveMIP(ctx context.Context, p Problem, opts Options, primer *Solution, bestKnown func() float64) (*Solution, error) {
	gamma := opts.Gamma
	n := p.G.N()
	mod := ilp.NewModel("vh-labeling")
	// Variables: xV_i, xH_i per node; xE per edge; D.
	xV := make([]int, n)
	xH := make([]int, n)
	for i := 0; i < n; i++ {
		xV[i] = mod.AddVar(fmt.Sprintf("xV%d", i), 0, 1, ilp.Binary, gamma)
		xH[i] = mod.AddVar(fmt.Sprintf("xH%d", i), 0, 1, ilp.Binary, gamma)
	}
	edges := p.G.Edges()
	var xE []int
	if opts.UseEdgeHelpers {
		xE = make([]int, len(edges))
		for k := range edges {
			xE[k] = mod.AddVar(fmt.Sprintf("e%d", k), 0, 1, ilp.Binary, 0)
		}
	}
	// D is integral in every optimal labeling (it equals max(R, C));
	// declaring it Integer lets the solver exploit objective granularity.
	dVar := mod.AddVar("D", 0, float64(n), ilp.Integer, 1-gamma)

	// Every node carries at least one label.
	for i := 0; i < n; i++ {
		mod.AddConstr("lbl", []ilp.Term{{Var: xV[i], Coeff: 1}, {Var: xH[i], Coeff: 1}}, ilp.GE, 1)
	}
	// Connection constraints: each edge must be V–H or H–V.
	for k, e := range edges {
		i, j := e[0], e[1]
		if opts.UseEdgeHelpers {
			// The paper's Eq. 4: a binary helper picks the orientation.
			mod.AddConstr("conVH", []ilp.Term{
				{Var: xV[i], Coeff: 1}, {Var: xH[j], Coeff: 1}, {Var: xE[k], Coeff: 2},
			}, ilp.GE, 2)
			mod.AddConstr("conHV", []ilp.Term{
				{Var: xH[i], Coeff: 1}, {Var: xV[j], Coeff: 1}, {Var: xE[k], Coeff: -2},
			}, ilp.GE, 0)
		} else {
			// Helper-free equivalent: forbid V-only/V-only (no H on either
			// side) and H-only/H-only (no V on either side).
			mod.AddConstr("conH", []ilp.Term{
				{Var: xH[i], Coeff: 1}, {Var: xH[j], Coeff: 1},
			}, ilp.GE, 1)
			mod.AddConstr("conV", []ilp.Term{
				{Var: xV[i], Coeff: 1}, {Var: xV[j], Coeff: 1},
			}, ilp.GE, 1)
		}
	}
	// D >= R = sum xH, D >= C = sum xV.
	rTerms := make([]ilp.Term, 0, n+1)
	cTerms := make([]ilp.Term, 0, n+1)
	for i := 0; i < n; i++ {
		rTerms = append(rTerms, ilp.Term{Var: xH[i], Coeff: -1})
		cTerms = append(cTerms, ilp.Term{Var: xV[i], Coeff: -1})
	}
	rTerms = append(rTerms, ilp.Term{Var: dVar, Coeff: 1})
	cTerms = append(cTerms, ilp.Term{Var: dVar, Coeff: 1})
	mod.AddConstr("DgeR", rTerms, ilp.GE, 0)
	mod.AddConstr("DgeC", cTerms, ilp.GE, 0)
	// Alignment (Eq. 7).
	for _, v := range p.AlignH {
		mod.AddConstr("align", []ilp.Term{{Var: xH[v], Coeff: 1}}, ilp.GE, 1)
	}
	// Optional dimension budgets (the Section III extension).
	if opts.MaxRows > 0 {
		terms := make([]ilp.Term, 0, n)
		for i := 0; i < n; i++ {
			terms = append(terms, ilp.Term{Var: xH[i], Coeff: 1})
		}
		mod.AddConstr("maxRows", terms, ilp.LE, float64(opts.MaxRows))
	}
	if opts.MaxCols > 0 {
		terms := make([]ilp.Term, 0, n)
		for i := 0; i < n; i++ {
			terms = append(terms, ilp.Term{Var: xV[i], Coeff: 1})
		}
		mod.AddConstr("maxCols", terms, ilp.LE, float64(opts.MaxCols))
	}

	// Strengthening cuts. The plain Eq. 4 relaxation is weak (all-halves
	// is LP-feasible), so we add three families of valid inequalities:
	//
	//  1. Per odd cycle C (vertex-disjoint packing): some node of C must
	//     be VH, i.e. Σ_{i∈C}(xV_i + xH_i) ≥ |C| + 1.
	//  2. Globally, the VH set of any valid labeling is an odd cycle
	//     transversal, so S ≥ n + k where k is an OCT size lower bound —
	//     the packing number, upgraded to the exact minimum when the OCT
	//     solver proves it within its sub-budget.
	//  3. The max dimension is at least half the semiperimeter: 2D ≥ S.
	cycles := oct.DisjointOddCycles(p.G)
	for _, cyc := range cycles {
		terms := make([]ilp.Term, 0, 2*len(cyc))
		for _, v := range cyc {
			terms = append(terms, ilp.Term{Var: xV[v], Coeff: 1}, ilp.Term{Var: xH[v], Coeff: 1})
		}
		mod.AddConstr("oddcyc", terms, ilp.GE, float64(len(cyc)+1))
	}
	kLB := len(cycles)
	// The OCT warm start gets at most half of whatever remains of the
	// shared budget (capped at 30s); because its deadline is layered on the
	// same ctx, warm start plus branch & bound together can never spend
	// more than the user's TimeLimit.
	octBudget := 30 * time.Second
	if r := ctxRemaining(ctx); r > 0 && r/2 < octBudget {
		octBudget = r / 2
	}
	octCtx, octCancel := context.WithTimeout(ctx, octBudget)
	octRes, err := oct.FindContext(octCtx, p.G, oct.Options{Backend: opts.OCTBackend})
	octExpired := octCtx.Err() != nil
	octCancel()
	if err != nil {
		if !octExpired {
			return nil, err
		}
		// The OCT's share of the budget (or the shared budget itself) is
		// already exhausted: degrade to the greedy OCT (its labels still
		// serve as incumbent material below).
		octRes = oct.Heuristic(p.G)
	}
	if octRes.Optimal && len(octRes.OCT) > kLB {
		kLB = len(octRes.OCT)
	}
	sTerms := make([]ilp.Term, 0, 2*n)
	for i := 0; i < n; i++ {
		sTerms = append(sTerms, ilp.Term{Var: xV[i], Coeff: 1}, ilp.Term{Var: xH[i], Coeff: 1})
	}
	mod.AddConstr("semiLB", sTerms, ilp.GE, float64(n+kLB))
	dTerms := append(make([]ilp.Term, 0, 2*n+1), ilp.Term{Var: dVar, Coeff: 2})
	for i := 0; i < n; i++ {
		dTerms = append(dTerms, ilp.Term{Var: xV[i], Coeff: -1}, ilp.Term{Var: xH[i], Coeff: -1})
	}
	mod.AddConstr("DgeHalfS", dTerms, ilp.GE, 0)

	// Incumbent: the better of the primer (or greedy heuristic) and the
	// OCT-derived labeling (which achieves S = n + k* exactly when the OCT
	// is proven).
	heur := primer
	if heur == nil {
		heur = solveHeuristic(p, opts)
	}
	best := heur
	if octLabels, _ := orientAndBalance(p, octRes); Validate(p, octLabels) == nil {
		if st := ComputeStats(octLabels); st.Objective(gamma) < best.Stats.Objective(gamma) {
			best = &Solution{Labels: octLabels, Stats: st, Method: "oct-incumbent"}
		}
	}
	inc := incumbentFromLabels(mod.NumVars(), p, best.Labels, xV, xH, xE, dVar, edges)

	// The OCT-based analytic bound γ(n+kLB) + (1−γ)·⌈(n+kLB)/2⌉ — valid
	// because S >= n+kLB and D >= S/2 — backstops the branch & bound's
	// proven bound on every exit, crucial when the budget expires before
	// even the root LP finishes (the bound would otherwise read −∞, or the
	// trace be empty).
	analytic := gamma*float64(n+kLB) + (1-gamma)*math.Ceil(float64(n+kLB)/2)
	// fallback returns the incumbent when the MIP produced no labeling of
	// its own, still carrying a bound (DESIGN §5b). A fresh Solution: best
	// may alias the portfolio's shared primer.
	fallback := func(method string, trace []ilp.TraceEvent, nodes int) *Solution {
		trace, gap := anytimeTrace(trace, best.Stats.Objective(gamma), analytic, nodes)
		return &Solution{Labels: best.Labels, Stats: best.Stats, Optimal: gap <= 1e-9, Method: method, Trace: trace}
	}

	// Memory guard: the production LP core is the sparse revised simplex,
	// but it falls back to the dense oracle on numerical trouble, and the
	// dense tableau takes roughly rows x (vars + 2*rows) float64 cells — so
	// the guard stays sized for the worst case. Graphs beyond that budget get
	// the analytic bound instead, reported with the heuristic incumbent,
	// exactly the anytime data Figure 11 plots for circuits the paper's
	// CPLEX could not close either.
	rows := int64(mod.NumConstrs())
	cols := int64(mod.NumVars()) + 2*rows
	if rows*cols*8 > maxTableauBytes {
		return fallback("mip-bounded", nil, 0), nil
	}

	sol, err := ilp.SolveContext(ctx, mod, ilp.Options{
		Incumbent: inc, BestKnown: bestKnown, Workers: ilp.DefaultWorkers(),
	})
	if err != nil {
		if ctx.Err() != nil {
			// Budget expired between model build and solve: anytime
			// contract — return the incumbent rather than an error.
			return fallback("mip-fallback", nil, 0), nil
		}
		return nil, fmt.Errorf("labeling: MIP solve: %w", err)
	}
	if sol.Status == ilp.StatusInfeasible {
		return nil, fmt.Errorf("labeling: no labeling within %dx%d: %w", opts.MaxRows, opts.MaxCols, ErrInfeasible)
	}
	if sol.X == nil && (opts.MaxRows > 0 || opts.MaxCols > 0) {
		// Not proven infeasible — the time limit expired before either a
		// fitting labeling or a refutation was found.
		return nil, fmt.Errorf("labeling: budget %dx%d neither met nor refuted within the time limit",
			opts.MaxRows, opts.MaxCols)
	}
	if sol.X == nil {
		// No incumbent at all (should not happen: all-VH is feasible and
		// the heuristic always yields one); fall back to the primer.
		return fallback("mip-fallback", sol.Trace, sol.Nodes), nil
	}
	labels := make([]Label, n)
	for i := 0; i < n; i++ {
		hasV := sol.X[xV[i]] > 0.5
		hasH := sol.X[xH[i]] > 0.5
		switch {
		case hasV && hasH:
			labels[i] = VH
		case hasV:
			labels[i] = V
		case hasH:
			labels[i] = H
		}
	}
	st := ComputeStats(labels)
	trace, gap := anytimeTrace(sol.Trace, st.Objective(gamma), analytic, sol.Nodes)
	return &Solution{
		Labels:  labels,
		Stats:   st,
		Optimal: sol.Status == ilp.StatusOptimal || gap <= 1e-9,
		Method:  "mip",
		Trace:   trace,

		ColdNodes:      sol.ColdNodes,
		DenseFallbacks: sol.DenseFallbacks,
	}, nil
}

// anytimeTrace closes a MIP convergence trace for an incumbent of
// objective obj. The reported bound is the better of the solver's last
// sample and the analytic floor; when the trace does not already end on it
// — or is empty because the budget ran out before the root LP — a closing
// sample is appended, so every exit reports an incumbent and a bound
// (DESIGN §5b). It also returns the closing relative gap.
func anytimeTrace(trace []ilp.TraceEvent, obj, analytic float64, nodes int) ([]ilp.TraceEvent, float64) {
	bound := analytic
	if len(trace) > 0 && trace[len(trace)-1].Bound > bound {
		bound = trace[len(trace)-1].Bound
	}
	gap := 0.0
	if obj > bound && obj > 0 {
		gap = (obj - bound) / obj
	}
	if len(trace) == 0 || trace[len(trace)-1].Bound < bound-1e-9 {
		last := ilp.TraceEvent{Incumbent: obj, Bound: bound, Gap: gap, Nodes: nodes}
		if len(trace) > 0 {
			last.Elapsed = trace[len(trace)-1].Elapsed
		}
		trace = append(trace, last)
	}
	return trace, gap
}

// incumbentFromLabels encodes a valid labeling as a MIP solution vector.
func incumbentFromLabels(nVars int, p Problem, labels []Label, xV, xH, xE []int, dVar int, edges [][2]int) []float64 {
	x := make([]float64, nVars)
	rows, cols := 0, 0
	for i, l := range labels {
		if l.HasV() {
			x[xV[i]] = 1
			cols++
		}
		if l.HasH() {
			x[xH[i]] = 1
			rows++
		}
	}
	if xE != nil {
		for k, e := range edges {
			i, j := e[0], e[1]
			// xE=0 activates xV_i + xH_j >= 2; xE=1 activates xH_i + xV_j >= 2.
			if labels[i].HasV() && labels[j].HasH() {
				x[xE[k]] = 0
			} else {
				x[xE[k]] = 1
			}
		}
	}
	d := rows
	if cols > d {
		d = cols
	}
	x[dVar] = float64(d)
	return x
}
