package ilp

import (
	"context"
	"errors"
	"math"
)

// Warm-started node reoptimization for branch & bound.
//
// A child node differs from its parent only in tightened variable bounds.
// Reduced costs do not depend on bounds, so the parent's optimal basis is
// still dual feasible in the child: installing it under the child's bounds
// leaves only primal infeasibilities (typically just the branching
// variable), which the bounded dual simplex below removes in a handful of
// pivots instead of the cold path's phase 1 from an all-artificial basis.
//
// The model is lowered once at the root; that rsLP is a read-only
// template whose cols, b and cost every node shares. A node owns only its
// bounds, basis and the eta entries it appends, so parallel workers
// reoptimize independently. Any numerical failure (iteration cap, singular
// basis, exit invariant, an ambiguous infeasibility proof) is reported as
// an error and branch & bound re-solves the node cold with solveLP.
//
// The parent's final reinversion factorized the very basic set a child
// installs, and reinversion ignores bounds, so a child given that factor
// installs it instead of reinverting: same eta file, same xB, same pivots.
//
// The root is a node too: its "parent basis" is the slack basis, which is
// dual feasible whenever every negative cost has a finite upper bound, and
// each root cut round starts from the last root basis with the new rows'
// slacks basic, which stays dual feasible.

// basisSnap is a compact optimal basis: one status per column of the
// sparse lowering. The basic set is {j : status[j] == isBasic}; its row
// order does not matter because refactorize reorders the basis anyway.
type basisSnap []varStatus

func (p *rsLP) snapshot() basisSnap { return append(basisSnap(nil), p.status...) }

// slackBasis returns t's slack basis: every row's slack basic (an
// equality row's artificial, which has no slack), every structural
// column at the bound its cost prefers. The multipliers are zero there,
// so each reduced cost is the column's cost and the basis is dual
// feasible: solveWarm can start the root from it. It returns nil when a
// negative cost has no finite upper bound.
func (t *rsLP) slackBasis() basisSnap {
	snap := make(basisSnap, t.n)
	for j := 0; j < t.nStruct; j++ {
		if t.cost[j] < 0 {
			if math.IsInf(t.up[j], 1) {
				return nil
			}
			snap[j] = atUpper
		}
	}
	t.slacksBasic(snap, 0)
	return snap
}

// extendBasis maps a basis snap of lowering old to t's column layout,
// where t lowers old's model with rows appended: the new rows' slacks
// (artificials, for new equality rows) join the basis. Their multipliers
// are zero, so every reduced cost is unchanged and a dual feasible snap
// stays dual feasible.
func (t *rsLP) extendBasis(old *rsLP, snap basisSnap) basisSnap {
	out := make(basisSnap, t.n)
	copy(out, snap[:old.firstArt])
	copy(out[t.firstArt:], snap[old.firstArt:])
	t.slacksBasic(out, old.m)
	return out
}

// slacksBasic makes basic, in snap, the slack of every row from row first
// on, or the row's artificial when it has no slack.
func (t *rsLP) slacksBasic(snap basisSnap, first int) {
	slacked := make([]bool, t.m-first)
	for j := t.nStruct; j < t.firstArt; j++ {
		if i := int(t.cols[j].ind[0]); i >= first {
			snap[j] = isBasic
			slacked[i-first] = true
		}
	}
	for i, ok := range slacked {
		if !ok {
			snap[t.firstArt+first+i] = isBasic
		}
	}
}

// errWarmFailed reports a warm start that cannot proceed safely; the
// caller re-solves the node cold.
var errWarmFailed = errors.New("ilp: warm start failed")

// warmNode is the template t's node LP under bounds lbs/ubs with the
// basis snap installed but not yet factorized. It reports
// errBoundsInfeasible for crossed bounds and errWarmFailed for a snapshot
// that is not a basis.
func (t *rsLP) warmNode(lbs, ubs []float64, snap basisSnap) (*rsLP, error) {
	p := &rsLP{
		m: t.m, n: t.n, nStruct: t.nStruct, firstArt: t.firstArt,
		cols: t.cols, b: t.b, cost: t.cost,
		lo: make([]float64, t.n), up: make([]float64, t.n),
		status:  append([]varStatus(nil), snap...),
		basis:   make([]int, 0, t.m),
		xB:      make([]float64, t.m),
		w:       make([]float64, t.m),
		y:       make([]float64, t.m),
		activeN: t.firstArt,
		// One budget for dual pivots and polish, like the cold path's
		// two phases.
		maxIters: t.maxIters,
	}
	for j := 0; j < p.nStruct; j++ {
		if lbs[j] > ubs[j]+feasTol {
			return nil, errBoundsInfeasible
		}
		p.lo[j], p.up[j] = lbs[j], math.Max(ubs[j], lbs[j])
	}
	// Slacks are [0, +Inf); artificials stay pinned at zero (lo = up = 0).
	for j := p.nStruct; j < p.firstArt; j++ {
		p.up[j] = math.Inf(1)
	}
	for j, st := range p.status {
		if st == isBasic {
			p.basis = append(p.basis, j)
		} else if st == atUpper && math.IsInf(p.up[j], 1) {
			p.status[j] = atLower
		}
	}
	if len(p.basis) != p.m {
		return nil, errWarmFailed
	}
	return p, nil
}

// solveWarm reoptimizes the template t under bounds lbs/ubs, starting
// from the basis snap of the node's parent: install the basis and its
// factor f (nil, or not of snap's basic set: reinvert instead), run the
// dual simplex to primal feasibility, then a primal polish that removes
// any dual infeasibility the tolerances let through. f must have been
// built on t's columns, by a solve on t or on an identical lowering.
func (t *rsLP) solveWarm(ctx context.Context, lbs, ubs []float64, snap basisSnap, f *factor) (lpResult, error) {
	p, err := t.warmNode(lbs, ubs, snap)
	if errors.Is(err, errBoundsInfeasible) {
		return lpResult{status: StatusInfeasible}, nil
	}
	if err != nil {
		return lpResult{}, err
	}
	p.ctx = ctx
	if f == nil || !p.install(f) {
		if err := p.refactorize(); err != nil {
			return p.result(StatusNoSolution), err
		}
	}
	infeasible, err := p.dualOptimize()
	if err != nil {
		return p.result(StatusNoSolution), err
	}
	if infeasible {
		return p.result(StatusInfeasible), nil
	}
	if err := p.optimize(p.cost); err != nil {
		if errors.Is(err, errUnbounded) {
			// A node of a bounded root cannot be unbounded.
			return p.result(StatusNoSolution), errWarmFailed
		}
		return p.result(StatusNoSolution), err
	}
	return p.finish(lbs, ubs)
}

// dualCand is one column eligible to enter in the dual ratio test.
type dualCand struct {
	j     int
	alpha float64 // pivot-row entry
	ratio float64 // |reduced cost| / |alpha|
}

// dualOptimize runs the bounded dual simplex from a dual-feasible basis
// until the basic solution is primal feasible. Each iteration:
//
//   - the leaving row r is the basic variable with the largest bound
//     violation;
//   - BTRAN of e_r gives the pivot row alpha_j = e_rᵀ B⁻¹ A_j;
//   - the dual ratio test keeps dual feasibility: when x_r must rise,
//     atLower columns with alpha_j < 0 and atUpper columns with
//     alpha_j > 0 may enter (mirrored when x_r must fall), at ratio
//     |d_j| / |alpha_j|; a Harris two-pass test picks the largest |alpha_j|
//     among near-minimal ratios;
//   - FTRAN of the entering column and the primal eta pivot move x_r
//     exactly onto its violated bound.
//
// infeasible = true means a violated row has no eligible entering column:
// that row is a dual ray proving the node's LP infeasible. There is no
// anti-cycling rule: the iteration cap turns a stall into errIterLimit,
// and branch & bound re-solves the node cold.
func (p *rsLP) dualOptimize() (infeasible bool, err error) {
	rho := make([]float64, p.m)
	var cands []dualCand
	for {
		r, sigma := p.chooseLeaving()
		if r < 0 {
			return false, nil // primal feasible, hence optimal
		}
		if err := p.tick(); err != nil {
			return false, err
		}
		b := p.basis[r]
		target := p.lo[b]
		if sigma < 0 {
			target = p.up[b]
		}
		// Pivot row and simplex multipliers.
		for i := range rho {
			rho[i] = 0
		}
		rho[r] = 1
		p.btran(rho)
		y := p.y
		for i := range y {
			y[i] = 0
		}
		for i, bi := range p.basis {
			if cb := p.cost[bi]; !zero(cb) {
				y[i] = cb
			}
		}
		p.btran(y)

		cands = cands[:0]
		// reach is how far the eligible columns too small to pivot on
		// (but above roundoff) could still move x_r.
		reach := 0.0
		for j := 0; j < p.activeN; j++ {
			st := p.status[j]
			if st == isBasic || zero(p.up[j]-p.lo[j]) {
				continue
			}
			col := &p.cols[j]
			alpha, d := 0.0, p.cost[j]
			for t, i := range col.ind {
				alpha += rho[i] * col.val[t]
				d -= y[i] * col.val[t]
			}
			sa := sigma * alpha
			if (st == atLower && sa >= 0) || (st == atUpper && sa <= 0) {
				continue
			}
			if math.Abs(alpha) < pivotTol {
				if math.Abs(alpha) >= etaDropTol {
					reach += math.Abs(alpha) * (p.up[j] - p.lo[j])
				}
				continue
			}
			if st == atUpper {
				d = -d
			}
			cands = append(cands, dualCand{j: j, alpha: alpha, ratio: math.Max(d, 0) / math.Abs(alpha)})
		}
		if len(cands) == 0 {
			if reach >= math.Abs(p.xB[r]-target)-feasTol {
				// Only sub-pivotTol entries could close the violation: too
				// close to call, so let the cold path decide.
				return false, errWarmFailed
			}
			return true, nil
		}
		q := chooseDualEntering(cands)
		w := p.w
		p.loadCol(q, w)
		p.ftran(w)
		if math.Abs(w[r]) < pivotTol {
			return false, errWarmFailed
		}
		theta := (p.xB[r] - target) / w[r]
		for i := range p.xB {
			if i != r && !zero(w[i]) {
				p.xB[i] -= w[i] * theta
			}
		}
		if sigma > 0 {
			p.status[b] = atLower
		} else {
			p.status[b] = atUpper
		}
		p.xB[r] = p.nonbasicValue(q) + theta
		p.basis[r] = q
		p.status[q] = isBasic
		p.appendEta(w, r)
		if p.pivots >= refactorEvery || p.etaNNZ > p.etaBudget() {
			if err := p.refactorize(); err != nil {
				return false, err
			}
		}
	}
}

// chooseLeaving returns the row whose basic variable violates its bounds
// the most and the direction it must move: +1 up to its lower bound, -1
// down to its upper bound. (-1, 0) means the basis is primal feasible.
func (p *rsLP) chooseLeaving() (int, float64) {
	r, sigma, worst := -1, 0.0, feasTol
	for i, b := range p.basis {
		if v := p.lo[b] - p.xB[i]; v > worst {
			r, sigma, worst = i, 1, v
		}
		if v := p.xB[i] - p.up[b]; v > worst {
			r, sigma, worst = i, -1, v
		}
	}
	return r, sigma
}

// chooseDualEntering is the Harris two-pass dual ratio test: pass one
// finds the largest step that keeps every reduced cost within costTol of
// dual feasibility, pass two takes the largest |alpha| whose ratio fits
// under it (numerical stability over exact minimality; the primal polish
// mops up the tolerated infeasibility). It returns the entering column.
func chooseDualEntering(cands []dualCand) int {
	limit := math.Inf(1)
	for _, c := range cands {
		if l := c.ratio + costTol/math.Abs(c.alpha); l < limit {
			limit = l
		}
	}
	best := dualCand{j: -1}
	for _, c := range cands {
		if c.ratio <= limit && math.Abs(c.alpha) > math.Abs(best.alpha) {
			best = c
		}
	}
	return best.j
}
