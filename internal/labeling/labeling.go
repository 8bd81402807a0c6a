// Package labeling solves COMPACT's VH-labeling problem (Section V-B of
// the paper): assign every node of an undirected graph a label V (vertical
// bitline), H (horizontal wordline), or VH (both) such that no edge joins
// two V nodes or two H nodes, minimizing the weighted objective
// γ·S + (1−γ)·D where S is the crossbar semiperimeter (= n + #VH) and D
// the maximum dimension (= max(rows, cols)).
//
// Four methods are provided:
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
// Every solver is deadline-honest: the context SolveContext is given is
// the one budget, and all sub-solves (including the MIP's OCT warm start)
// spend from it.
package labeling

import (
	"context"
	"errors"
	"fmt"
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

// Problem is a VH-labeling instance.
type Problem struct {
	// G is the undirected graph derived from the BDD (0-terminal removed).
	G *graph.Graph
	// AlignH lists nodes that must receive at least an H label (the
	// paper's Eq. 7: function outputs/roots and the 1-terminal input).
	AlignH []int
}

// Stats are the footprint dimensions implied by a labeling on K wire
// layers. All even layers share one row pitch and all odd layers one
// column pitch, so at K = 2 Rows = #H + #VH and Cols = #V + #VH.
type Stats struct {
	K      int   // wire layers
	Widths []int // wires per layer (occupancy), len K
	Rows   int   // footprint rows: max width over even (wordline) layers
	Cols   int   // footprint cols: max width over odd (bitline) layers
	S      int   // semiperimeter = Rows + Cols
	D      int   // max dimension = max(Rows, Cols)
}

// Objective evaluates γ·S + (1−γ)·D.
func (s Stats) Objective(gamma float64) float64 {
	return gamma*float64(s.S) + (1-gamma)*float64(s.D)
}

// ComputeStats derives the footprint from per-node layer intervals on k
// layers.
func ComputeStats(k int, lo, hi []int) Stats {
	st := Stats{K: k, Widths: make([]int, k)}
	for v := range lo {
		for l := max(lo[v], 0); l <= hi[v] && l < k; l++ {
			st.Widths[l]++
		}
	}
	for l, w := range st.Widths {
		if l%2 == 0 {
			st.Rows = max(st.Rows, w)
		} else {
			st.Cols = max(st.Cols, w)
		}
	}
	st.S = st.Rows + st.Cols
	st.D = max(st.Rows, st.Cols)
	return st
}

// Validate checks that the intervals solve p on k layers: every node
// occupies a non-empty in-range interval, every edge is realizable on some
// adjacent layer pair, and every alignment node reaches an even (wordline)
// layer. At K = 2 that is: every node labeled, no V–V or H–H edge, and
// every alignment node carries an H.
func Validate(p Problem, k int, lo, hi []int) error {
	n := p.G.N()
	if len(lo) != n || len(hi) != n {
		return fmt.Errorf("labeling: %d/%d intervals for %d nodes", len(lo), len(hi), n)
	}
	if k < 2 {
		return fmt.Errorf("labeling: %d wire layers (need >= 2)", k)
	}
	for v := 0; v < n; v++ {
		if lo[v] < 0 || hi[v] >= k || lo[v] > hi[v] {
			return fmt.Errorf("labeling: node %d interval [%d,%d] outside 0..%d", v, lo[v], hi[v], k-1)
		}
	}
	for _, e := range p.G.Edges() {
		u, v := e[0], e[1]
		if !edgeRealizable(lo[u], hi[u], lo[v], hi[v], k) {
			return fmt.Errorf("labeling: edge (%d,%d) with intervals [%d,%d]–[%d,%d] has no adjacent layer pair",
				u, v, lo[u], hi[u], lo[v], hi[v])
		}
	}
	for _, v := range p.AlignH {
		if !reachesEven(lo[v], hi[v]) {
			return fmt.Errorf("labeling: alignment node %d interval [%d,%d] reaches no even layer", v, lo[v], hi[v])
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

// Solution is a valid labeling plus solve metadata: one contiguous layer
// interval per node on K wire layers. The paper's VH-labeling is its K = 2
// case, and there Labels carries the V/H/VH view of the intervals.
type Solution struct {
	K      int
	Lo, Hi []int // per-node contiguous layer interval
	// Labels is the VH-labeling the intervals encode (H = [0,0],
	// V = [1,1], VH = [0,1]); set at K = 2 only.
	Labels  []Label
	Stats   Stats
	Optimal bool   // proven optimal for the chosen objective
	Method  string // solver that produced the labeling
	Elapsed time.Duration
	// Trace carries the MIP convergence samples (Figure 10/11 data);
	// empty for MethodOCT and MethodHeuristic. For MethodPortfolio it is
	// the winner's incumbent closed on the best bound any engine proved,
	// so it is never empty.
	Trace []ilp.TraceEvent
	// ColdNodes and Refactors carry the MIP branch & bound's ilp.Solution
	// counters of the same names (zero when no MIP ran): node LPs solved
	// from scratch instead of warm from the parent's basis, and simplex
	// basis reinversions.
	ColdNodes, Refactors int
	// Engines reports the per-engine outcome of a MethodPortfolio race
	// (which engine won, each engine's objective and elapsed time); nil for
	// the single-engine methods.
	Engines []EngineReport
}

// KSolution is the K-layer name of Solution.
//
// Deprecated: use Solution.
type KSolution = Solution

// SolveContext computes a VH-labeling of p: SolveK at K = 2. ctx is the
// one budget shared by every sub-solver — the OCT warm start, the MIP
// branch & bound (checked inside simplex pivots) and the portfolio engines
// all spend from it, so a solve cannot outlast ctx's deadline by more than
// one pivot. When ctx is cancelled or reaches its deadline mid-solve, the
// best valid labeling found so far is returned (never an error); a
// context that is already dead on entry returns (nil, ctx.Err()) promptly.
func SolveContext(ctx context.Context, p Problem, opts Options) (*Solution, error) {
	return SolveK(ctx, p, 2, opts)
}

// solve is the one labeling driver for every layer count k >= 2: entry check,
// O(1) cap refutation, method dispatch, and the checks every answer must
// pass. At K = 2 it runs the 2D engines (OCT and the Eq. 4 MIP) and fills
// Solution.Labels.
func solve(ctx context.Context, p Problem, k int, opts Options) (*Solution, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.AutoExactLimit <= 0 {
		opts.AutoExactLimit = 600
	}
	// Provable early infeasibility: every node takes at least one wire, and
	// each of the ⌈k/2⌉ even layers holds at most MaxRows wires and each of
	// the ⌊k/2⌋ odd ones at most MaxCols (at K = 2: S = n + #VH >= n). When
	// the graph alone exceeds that capacity, refute in O(1) instead of
	// burning the budget on a doomed search. This is what makes partitioned
	// synthesis affordable: each failed piece attempt costs a BDD build,
	// not an exact-solver timeout.
	n := p.G.N()
	if ke, ko := (k+1)/2, k/2; opts.MaxRows > 0 && opts.MaxCols > 0 && n > ke*opts.MaxRows+ko*opts.MaxCols {
		return nil, fmt.Errorf("labeling: %d graph nodes exceed the %d-layer capacity of budget %dx%d: %w",
			n, k, opts.MaxRows, opts.MaxCols, ErrInfeasible)
	}
	method := opts.Method
	if method == MethodAuto && k == 2 {
		// The OCT route scales far beyond the MIP: its odd-cycle branch &
		// bound starts from the greedy OCT and, when the time limit bites,
		// returns the best OCT found so far — never worse than the plain
		// heuristic labeler.
		method = MethodOCT
		if n <= opts.AutoExactLimit {
			method = MethodMIP
		}
	}
	var sol *Solution
	var err error
	switch {
	case method == MethodHeuristic:
		sol = solveKHeuristic(p, k, opts)
	case method == MethodMIP:
		sol, err = solveMIP(ctx, p, k, opts, nil, nil)
	case method == MethodOCT && k == 2:
		sol, err = solveOCT(ctx, p, opts)
	case method <= MethodPortfolio:
		// At K >= 3 auto and oct race too: there is no OCT analogue above
		// two colors.
		sol, err = solvePortfolio(ctx, p, k, opts)
	default:
		return nil, fmt.Errorf("labeling: unknown method %v", method)
	}
	if err != nil {
		return nil, err
	}
	sol.Elapsed = time.Since(start)
	if err := Validate(p, k, sol.Lo, sol.Hi); err != nil {
		return nil, fmt.Errorf("labeling: solver %s produced invalid labeling: %w", sol.Method, err)
	}
	if k == 2 {
		sol.Labels = lowerLabels(sol.Lo, sol.Hi)
		vh := 0
		for v := range sol.Lo {
			if sol.Lo[v] < sol.Hi[v] {
				vh++
			}
		}
		err := invariant.EdgesSpanHV(p.G, func(v int) bool { return sol.Lo[v] == 0 }, func(v int) bool { return sol.Hi[v] == 1 })
		if err == nil {
			err = invariant.Semiperimeter(n, vh, sol.Stats.S)
		}
		if err != nil {
			return nil, fmt.Errorf("labeling: solver %s: %w", sol.Method, err)
		}
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
	sol := foldLabels(p, 2, opts.Gamma, labels)
	// The method proves minimality of S (= n + k*) when the OCT is proven
	// and no alignment upgrades were needed. For γ < 1 the objective also
	// involves D; the result is additionally optimal when D meets the
	// analytic floor ⌈S/2⌉ (then γS + (1−γ)D equals the valid lower bound
	// γ(n+k*) + (1−γ)⌈(n+k*)/2⌉ for every γ).
	st := sol.Stats
	sol.Optimal = res.Optimal && upgrades == 0 && (opts.Gamma >= 1 || st.D == (st.S+1)/2)
	sol.Method = "oct"
	return sol, nil
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
	// Components with an alignment preference first, oriented to minimize
	// upgrades; the rest are left to balancing.
	var free []*compInfo
	for _, ci := range comps {
		switch {
		case ci.align0 > ci.align1:
			apply(ci, 0)
		case ci.align1 > ci.align0:
			apply(ci, 1)
		default:
			free = append(free, ci)
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
		if max(r0, c0) <= max(r1, c1) {
			apply(ci, 0)
		} else {
			apply(ci, 1)
		}
	}
	return labels, upgrades
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// eq4Model builds Section VI-B's MIP: the paper's Eq. 4 with Eq. 7
// alignment over x^V_i, x^H_i per node, the optional dimension caps, and
// (after the shared odd-cycle rows and S >= n + kLB floor) the cut
// 2D >= S. x^H is layer 0 of the K = 2 intervals and x^V layer 1.
func eq4Model(p Problem, opts Options) *exactModel {
	gamma := opts.Gamma
	n := p.G.N()
	mod := ilp.NewModel("vh-labeling")
	// Variables: xV_i, xH_i per node; xE per edge; D.
	xV := make([]int, n)
	xH := make([]int, n)
	occ := make([][]int, n)
	for i := 0; i < n; i++ {
		xV[i] = mod.AddVar(fmt.Sprintf("xV%d", i), 0, 1, ilp.Binary, gamma)
		xH[i] = mod.AddVar(fmt.Sprintf("xH%d", i), 0, 1, ilp.Binary, gamma)
		occ[i] = []int{xV[i], xH[i]}
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

	m := &exactModel{name: "mip", k: 2, mod: mod, occ: occ}
	// The max dimension is at least half the semiperimeter: 2D >= S.
	m.tail = func() {
		dTerms := append(make([]ilp.Term, 0, 2*n+1), ilp.Term{Var: dVar, Coeff: 2})
		for i := 0; i < n; i++ {
			dTerms = append(dTerms, ilp.Term{Var: xV[i], Coeff: -1}, ilp.Term{Var: xH[i], Coeff: -1})
		}
		mod.AddConstr("DgeHalfS", dTerms, ilp.GE, 0)
	}
	m.encode = func(c *Solution) []float64 {
		x := make([]float64, mod.NumVars())
		for i := range c.Lo {
			if c.Hi[i] == 1 {
				x[xV[i]] = 1
			}
			if c.Lo[i] == 0 {
				x[xH[i]] = 1
			}
		}
		// xE=0 activates xV_i + xH_j >= 2; xE=1 activates xH_i + xV_j >= 2.
		for k, e := range edges[:len(xE)] {
			if c.Hi[e[0]] != 1 || c.Lo[e[1]] != 0 {
				x[xE[k]] = 1
			}
		}
		x[dVar] = float64(c.Stats.D)
		return x
	}
	m.decode = func(x []float64) (lo, hi []int) {
		lo, hi = make([]int, n), make([]int, n)
		for i := range lo {
			if x[xH[i]] <= 0.5 {
				lo[i] = 1
			}
			if x[xV[i]] > 0.5 {
				hi[i] = 1
			}
		}
		return lo, hi
	}
	return m
}

// lowerLabels is LiftLabels' inverse: [0,0] → H, [1,1] → V, [0,1] → VH.
// Any other interval stays Unlabeled.
func lowerLabels(lo, hi []int) []Label {
	labels := make([]Label, len(lo))
	for v := range lo {
		switch {
		case lo[v] == 0 && hi[v] == 0:
			labels[v] = H
		case lo[v] == 1 && hi[v] == 1:
			labels[v] = V
		case lo[v] == 0 && hi[v] == 1:
			labels[v] = VH
		}
	}
	return labels
}
