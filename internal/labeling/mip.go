package labeling

import (
	"context"
	"fmt"
	"time"

	"compact/internal/graph"
	"compact/internal/ilp"
	"compact/internal/oct"
)

// maxTableauBytes is the MIP labeler's model-size cut-off, measured as the
// bytes a dense LP tableau of the model would take; larger models return
// the incumbent with the analytic bound (see solveExact).
const maxTableauBytes = int64(1) << 30

// exactModel is one exact labeling model: the paper's Eq. 4 over x^V, x^H
// at K = 2 (eq4Model) or FLOW-3D's interval ILP over x[v][l] at K >= 3
// (intervalModel). Its builder adds the rows only that model has;
// solveExact adds the rows both share and runs the solve.
type exactModel struct {
	name string // engine name: "mip" or "kmip"
	k    int
	mod  *ilp.Model
	// occ lists per node the variables whose sum is the number of wires
	// the node takes (x^V_v + x^H_v, or Σ_l x[v][l]).
	occ [][]int
	// tail adds the rows that follow the shared occupancy floor (Eq. 4's
	// 2D >= S), so the model keeps the row order its branch & bound was
	// tuned on.
	tail func()
	// encode writes a valid labeling as a solution vector; decode reads
	// the solver's vector back as layer intervals.
	encode func(c *Solution) []float64
	decode func(x []float64) (lo, hi []int)
	// cuts, when set, stands in for oddCycleCuts as the solve's cut
	// separator, so a test can act between cut rounds.
	cuts func(x []float64) []ilp.Constraint
}

// solveMIP solves p exactly on k layers (Section VI-B at K = 2): the
// model's builder, then solveExact. primer, when non-nil, is a valid
// labeling used as the incumbent instead of recomputing the heuristic;
// bestKnown, when non-nil, feeds a live external objective bound into the
// branch & bound (portfolio incumbent sharing).
func solveMIP(ctx context.Context, p Problem, k int, opts Options, primer *Solution, bestKnown func() float64) (*Solution, error) {
	if k == 2 {
		return solveExact(ctx, p, opts, eq4Model(p, opts), primer, bestKnown)
	}
	return solveExact(ctx, p, opts, intervalModel(p, k, opts), primer, bestKnown)
}

// addOCTRows adds the rows both models share and returns the OCT warm
// start and the occupancy floor's kLB. A node on one layer has that
// layer's parity and every edge joins opposite parities, so the nodes
// taking two or more wires (VH at K = 2) form an odd cycle transversal.
// Hence per vertex-disjoint odd cycle C, Σ_{v∈C} occupancy >= |C| + 1
// (the plain relaxation is weak: all-halves is LP-feasible), and in total
// Σ occupancy >= n + kLB, where kLB is the packing number raised to the
// minimum OCT size k* when the warm start proves it. The warm start
// spends from ctx; a budget that dies first degrades it to the greedy OCT.
func (m *exactModel) addOCTRows(ctx context.Context, p Problem, opts Options) (oct.Result, int, error) {
	cycles := oct.DisjointOddCycles(p.G)
	for _, cyc := range cycles {
		c := m.cycleRow(cyc)
		m.mod.AddConstr(c.Name, c.Terms, c.Sense, c.RHS)
	}
	kLB := len(cycles)
	// The OCT warm start gets at most half of whatever remains of the
	// shared budget (capped at 30s); because its deadline is layered on the
	// same ctx, warm start plus branch & bound together can never outlast
	// ctx.
	octBudget := 30 * time.Second
	if d, ok := ctx.Deadline(); ok {
		if r := time.Until(d); r > 0 && r/2 < octBudget {
			octBudget = r / 2
		}
	}
	octCtx, octCancel := context.WithTimeout(ctx, octBudget)
	octRes, err := oct.FindContext(octCtx, p.G, oct.Options{Backend: opts.OCTBackend})
	octExpired := octCtx.Err() != nil
	octCancel()
	if err != nil {
		if !octExpired {
			return oct.Result{}, 0, err
		}
		octRes = oct.Heuristic(p.G)
	}
	if octRes.Optimal && len(octRes.OCT) > kLB {
		kLB = len(octRes.OCT)
	}
	n := p.G.N()
	terms := make([]ilp.Term, 0, m.k*n)
	for _, xs := range m.occ {
		for _, x := range xs {
			terms = append(terms, ilp.Term{Var: x, Coeff: 1})
		}
	}
	m.mod.AddConstr("semiLB", terms, ilp.GE, float64(n+kLB))
	if m.tail != nil {
		m.tail()
	}
	return octRes, kLB, nil
}

// cycleRow is Lemma 1's row for the odd cycle cyc: its nodes take at
// least |C| + 1 wires in all.
func (m *exactModel) cycleRow(cyc []int) ilp.Constraint {
	terms := make([]ilp.Term, 0, m.k*len(cyc))
	for _, v := range cyc {
		for _, x := range m.occ[v] {
			terms = append(terms, ilp.Term{Var: x, Coeff: 1})
		}
	}
	return ilp.Constraint{Name: "oddcyc", Terms: terms, Sense: ilp.GE, RHS: float64(len(cyc) + 1)}
}

// oddCycleCuts is the exact models' cut separator: the cycle row of every
// odd cycle of g that the LP solution x violates, found by
// oct.ViolatedOddCycles over the weights occupancy − 1.
func (m *exactModel) oddCycleCuts(g *graph.Graph, x []float64) []ilp.Constraint {
	w := make([]float64, g.N())
	for v, xs := range m.occ {
		w[v] = -1
		for _, j := range xs {
			w[v] += x[j]
		}
	}
	cycles := oct.ViolatedOddCycles(g, w)
	cuts := make([]ilp.Constraint, len(cycles))
	for i, cyc := range cycles {
		cuts[i] = m.cycleRow(cyc)
	}
	return cuts
}

// solveExact is the one MIP driver for every K. It adds the shared rows,
// primes the branch & bound with the better of the primer (the heuristic
// when nil) and the OCT warm start's labeling folded onto m.k layers,
// solves under ctx's deadline, and closes the trace on the analytic floor
// so every exit reports an incumbent and a bound (DESIGN §5b).
func solveExact(ctx context.Context, p Problem, opts Options, m *exactModel, primer *Solution, bestKnown func() float64) (*Solution, error) {
	gamma := opts.Gamma
	octRes, kLB, err := m.addOCTRows(ctx, p, opts)
	if err != nil {
		return nil, err
	}
	// Incumbent: the OCT-derived labeling achieves S = n + k* at K = 2
	// exactly when the OCT is proven.
	best := primer
	if best == nil {
		best = solveKHeuristic(p, m.k, opts)
	}
	octLabels, _ := orientAndBalance(p, octRes)
	if lo, hi := LiftLabels(octLabels); Validate(p, 2, lo, hi) == nil {
		if c := foldLabels(p, m.k, gamma, octLabels); c.Stats.Objective(gamma) < best.Stats.Objective(gamma) {
			best = c
		}
	}
	inc := m.encode(best)

	// The analytic floor backstops the branch & bound's proven bound on
	// every exit, crucial when the budget expires before even the root LP
	// finishes (the bound would otherwise read −∞, or the trace be empty).
	analytic := objectiveFloor(gamma, p.G.N()+kLB, m.k)
	// fallback returns the incumbent when the MIP produced no labeling of
	// its own, still carrying a bound. Fresh intervals: best may alias the
	// portfolio's shared primer.
	fallback := func(method string, trace []ilp.TraceEvent, nodes int) *Solution {
		trace, gap := anytimeTrace(trace, best.Stats.Objective(gamma), analytic, nodes)
		return &Solution{K: m.k, Lo: append([]int(nil), best.Lo...), Hi: append([]int(nil), best.Hi...),
			Stats: best.Stats, Optimal: gap <= 1e-9, Method: method, Trace: trace}
	}

	// Size guard: a model whose dense tableau would take more than
	// maxTableauBytes — roughly rows x (vars + 2*rows) float64 cells — gets
	// the analytic bound instead, reported with the incumbent, exactly the
	// anytime data Figure 11 plots for circuits the paper's CPLEX could not
	// close either. The sparse LP core needs no such memory, but it has not
	// been measured on the models past the cut-off (arbiter, c1355, c1908,
	// c499 and c7552 among the bundled circuits). Solving them would change
	// their run time and their reported bound, so the cut-off stays until a
	// measured change moves it.
	rows := int64(m.mod.NumConstrs())
	cols := int64(m.mod.NumVars()) + 2*rows
	if rows*cols*8 > maxTableauBytes {
		return fallback(m.name+"-bounded", nil, 0), nil
	}

	// Separation is always on: Lemma 1's odd-cycle rows, found by
	// shortest paths at the root and re-solved warm for a few rounds,
	// tighten the bound the static packing above starts from.
	cuts := m.cuts
	if cuts == nil {
		cuts = func(x []float64) []ilp.Constraint { return m.oddCycleCuts(p.G, x) }
	}
	sol, err := ilp.SolveContext(ctx, m.mod, ilp.Options{
		Incumbent: inc, BestKnown: bestKnown, Separate: cuts,
	})
	if err != nil {
		if ctx.Err() != nil {
			// Budget expired between model build and solve: anytime
			// contract — return the incumbent rather than an error.
			return fallback(m.name+"-fallback", nil, 0), nil
		}
		return nil, fmt.Errorf("labeling: %s solve: %w", m.name, err)
	}
	if sol.Status == ilp.StatusInfeasible {
		return nil, fmt.Errorf("labeling: no %d-layer labeling within %dx%d: %w", m.k, opts.MaxRows, opts.MaxCols, ErrInfeasible)
	}
	if sol.X == nil && (opts.MaxRows > 0 || opts.MaxCols > 0) {
		// Not proven infeasible — the time limit expired before either a
		// fitting labeling or a refutation was found.
		return nil, fmt.Errorf("labeling: %d-layer budget %dx%d neither met nor refuted within the time limit",
			m.k, opts.MaxRows, opts.MaxCols)
	}
	if sol.X == nil {
		// No incumbent at all (should not happen: the primer is feasible).
		return fallback(m.name+"-fallback", sol.Trace, sol.Nodes), nil
	}
	lo, hi := m.decode(sol.X)
	st := ComputeStats(m.k, lo, hi)
	trace, gap := anytimeTrace(sol.Trace, st.Objective(gamma), analytic, sol.Nodes)
	return &Solution{
		K: m.k, Lo: lo, Hi: hi,
		Stats:   st,
		Optimal: sol.Status == ilp.StatusOptimal || gap <= 1e-9,
		Method:  m.name,
		Trace:   trace,

		ColdNodes: sol.ColdNodes,
		Refactors: sol.Refactors,
	}, nil
}

// objectiveFloor is the objective bound implied by Σ occupancy >= occ on
// k layers: the ⌈k/2⌉ even layers hold at most R wires each and the
// ⌊k/2⌋ odd layers at most C, so S = R + C >= ⌈occ/⌈k/2⌉⌉ and
// D >= ⌈occ/k⌉. At K = 2 that is S >= n + kLB and D >= ⌈S/2⌉.
func objectiveFloor(gamma float64, occ, k int) float64 {
	ke := (k + 1) / 2
	return gamma*float64((occ+ke-1)/ke) + (1-gamma)*float64((occ+k-1)/k)
}

// anytimeTrace closes a convergence trace for an incumbent of objective
// obj. The reported bound is the better of the trace's last sample and
// floor; when the trace does not already end on it — or is empty because
// the budget ran out before the root LP — a closing sample is appended,
// so every exit reports an incumbent and a bound (DESIGN §5b). It also
// returns the closing relative gap.
func anytimeTrace(trace []ilp.TraceEvent, obj, floor float64, nodes int) ([]ilp.TraceEvent, float64) {
	bound := floor
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
