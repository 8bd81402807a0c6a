package ilp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"compact/internal/invariant"
)

// The LP core: a sparse bounded-variable two-phase revised simplex with
// a product-form-of-the-inverse (PFI) eta file.
//
// The model is lowered to equality standard form A x = b with per-variable
// bounds [lo, up] (up may be +Inf; lo must be finite). Slack variables turn
// inequalities into equalities; one artificial variable per row provides a
// trivially feasible starting basis for phase 1.
//
// This repository's models are extremely sparse — the vertex-cover and
// Eq.4 labeling matrices carry ~2 nonzeros per row — so the constraint
// matrix is kept in sparse column form and B⁻¹ is represented as a
// product of eta matrices: one pivot costs one BTRAN (pricing), one FTRAN
// (entering column) and one eta append, O(nnz + eta file), where a dense
// tableau pivot costs O(m·n). The eta file is rebuilt from scratch every
// refactorEvery pivots or when it grows past its nonzero budget (twice
// the fill the last rebuild left, plus 16m+1024), and the basic solution
// is recomputed from the raw right-hand side at each refactorization,
// which bounds numerical drift. Reinversion pivots each basis column on
// its largest remaining entry and costs O(nnz + eta file): it touches
// only each column's nonzero pattern and the etas that pattern reaches.
//
// Every solve checks its context (and the context's deadline against the
// clock) each iteration, stops at an iteration limit, falls back to
// Bland's rule after a stall window, takes bounded-variable bound flips,
// and checks the BoundedValues invariant on exit. A numerical failure (a
// singular basis, an exit-invariant breach) is returned as an error. The
// tests check this core against a dense two-phase tableau oracle
// (dense_test.go).

const (
	costTol  = 1e-7
	pivotTol = 1e-8
	feasTol  = 1e-6
)

const (
	// refactorEvery bounds the eta-file length (and so FTRAN/BTRAN cost
	// and drift) by periodic reinversion.
	refactorEvery = 96
	// etaDropTol discards negligible eta entries; anything this small is
	// numerical noise relative to feasTol and only bloats the file.
	etaDropTol = 1e-12
)

// zero reports whether x is exactly 0. Simplex and model code skip
// exact-zero coefficients purely to preserve sparsity and avoid useless
// arithmetic — it is never a tolerance decision (those use costTol,
// pivotTol and feasTol). The one deliberate exact float comparison in this
// package lives here.
//
//lint:ignore floatcmp centralized exact-zero sparsity fast path
func zero(x float64) bool { return x == 0 }

var errIterLimit = errors.New("ilp: simplex iteration limit reached")

// errTimeLimit aborts an LP solve whose context ends.
var errTimeLimit = errors.New("ilp: time limit reached during LP solve")

var errBoundsInfeasible = errors.New("ilp: variable bounds infeasible")

var errUnbounded = errors.New("ilp: LP unbounded")

var errSingularBasis = errors.New("ilp: singular basis during refactorization")

// spCol is one sparse constraint-matrix column.
type spCol struct {
	ind []int32
	val []float64
}

// eta is one elementary column transformation: B⁻¹ gains a factor E that
// is the identity except in column r, where E[r][r] = pivInv and
// E[i][r] = val[t] for i = ind[t].
type eta struct {
	r      int32
	pivInv float64
	ind    []int32
	val    []float64
}

type varStatus uint8

const (
	atLower varStatus = iota
	atUpper
	isBasic
)

// rsLP is a lowered sparse LP instance plus revised-simplex working state.
// The lowering: structural columns, one slack per inequality (coefficient
// +1 before row negation), one artificial per row (+1 after negation),
// rows negated so the initial artificial basis is feasible at the
// structural lower bounds.
type rsLP struct {
	m, n      int
	nStruct   int
	firstArt  int
	cols      []spCol
	b         []float64 // RHS after row negation
	lo, up    []float64
	cost      []float64
	status    []varStatus
	basis     []int
	xB        []float64
	etas      []eta
	etaNNZ    int
	baseNNZ   int // etaNNZ right after the last refactorization
	pivots    int // pivots since last refactorization
	refactors int // refactorizations so far
	reinv     *reinvScratch
	activeN   int // columns scanned by pricing (n, then firstArt in phase 2)
	iters     int
	maxIters  int
	ctx       context.Context
	w, y      []float64 // dense scratch: FTRAN column, BTRAN multipliers
}

// lowerSparse builds the sparse standard form with the bound overrides
// lbs/ubs in place of the model's variable bounds.
func lowerSparse(mod *Model, lbs, ubs []float64) (*rsLP, error) {
	nStruct := mod.NumVars()
	m := mod.NumConstrs()
	nSlack := 0
	for _, c := range mod.constrs {
		if c.Sense != EQ {
			nSlack++
		}
	}
	n := nStruct + nSlack + m
	p := &rsLP{
		m: m, n: n, nStruct: nStruct, firstArt: nStruct + nSlack,
		cols: make([]spCol, n),
		b:    make([]float64, m),
		lo:   make([]float64, n), up: make([]float64, n),
		cost:   make([]float64, n),
		status: make([]varStatus, n),
		basis:  make([]int, m),
		xB:     make([]float64, m),
		w:      make([]float64, m), y: make([]float64, m),
		activeN: n,
	}
	for j := 0; j < nStruct; j++ {
		p.lo[j], p.up[j] = lbs[j], ubs[j]
		if math.IsInf(p.lo[j], -1) {
			return nil, fmt.Errorf("ilp: variable %q has infinite lower bound (unsupported)", mod.names[j])
		}
		if p.lo[j] > p.up[j]+feasTol {
			return nil, errBoundsInfeasible
		}
		if p.up[j] < p.lo[j] {
			p.up[j] = p.lo[j]
		}
		p.cost[j] = mod.obj[j]
	}
	for j := nStruct; j < n; j++ {
		p.lo[j], p.up[j] = 0, math.Inf(1)
	}
	slack := nStruct
	for i, c := range mod.constrs {
		rhs := c.RHS
		sign := 1.0
		if c.Sense == GE {
			sign = -1.0
			rhs = -rhs
		}
		// Residual at the initial point (structurals at their lower
		// bounds, slacks at 0). A row with a negative residual is negated
		// so its artificial column is a +1 unit column with a nonnegative
		// value. Terms are merged by AddConstr, so no duplicate vars.
		res := rhs
		for _, t := range c.Terms {
			res -= sign * t.Coeff * p.lo[t.Var]
		}
		rowSign := 1.0
		if res < 0 {
			rowSign, res = -1, -res
			rhs = -rhs
		}
		for _, t := range c.Terms {
			v := rowSign * sign * t.Coeff
			if zero(v) {
				continue
			}
			col := &p.cols[t.Var]
			col.ind = append(col.ind, int32(i))
			col.val = append(col.val, v)
		}
		if c.Sense != EQ {
			p.cols[slack] = spCol{ind: []int32{int32(i)}, val: []float64{rowSign}}
			slack++
		}
		art := p.firstArt + i
		p.cols[art] = spCol{ind: []int32{int32(i)}, val: []float64{1}}
		p.b[i] = rhs
		p.basis[i] = art
		p.xB[i] = res
		p.status[art] = isBasic
	}
	p.maxIters = 200*(m+1) + 20*n + 2000
	return p, nil
}

// ftranEtas applies the eta file to x in order: x ← E_k … E_1 x, i.e.
// x ← B⁻¹ x when x held the original column.
func ftranEtas(etas []eta, x []float64) {
	for k := range etas {
		e := &etas[k]
		xr := x[e.r]
		if zero(xr) {
			continue
		}
		x[e.r] = e.pivInv * xr
		for t, i := range e.ind {
			x[i] += e.val[t] * xr
		}
	}
}

func (p *rsLP) ftran(x []float64) { ftranEtas(p.etas, x) }

// btran applies the transposed eta file in reverse: x ← E_1ᵀ … E_kᵀ x,
// i.e. x ← B⁻ᵀ x, the simplex multipliers when x held the basic costs.
func (p *rsLP) btran(x []float64) {
	for k := len(p.etas) - 1; k >= 0; k-- {
		e := &p.etas[k]
		s := e.pivInv * x[e.r]
		for t, i := range e.ind {
			s += e.val[t] * x[i]
		}
		x[e.r] = s
	}
}

// makeEta builds the eta column for pivot row r from the FTRAN'd entering
// column w. Entries below etaDropTol are noise and dropped.
func makeEta(w []float64, r int) eta {
	e := eta{r: int32(r), pivInv: 1 / w[r]}
	nnz := 0
	for i := range w {
		if i != r && !zero(w[i]) {
			nnz++
		}
	}
	if nnz == 0 {
		return e
	}
	e.ind = make([]int32, 0, nnz)
	e.val = make([]float64, 0, nnz)
	for i := range w {
		if i == r || zero(w[i]) {
			continue
		}
		v := -w[i] * e.pivInv
		if math.Abs(v) < etaDropTol {
			continue
		}
		e.ind = append(e.ind, int32(i))
		e.val = append(e.val, v)
	}
	return e
}

func (p *rsLP) appendEta(w []float64, r int) {
	e := makeEta(w, r)
	p.etas = append(p.etas, e)
	p.etaNNZ += len(e.ind) + 1
	p.pivots++
}

// loadCol scatters column j into the dense scratch w (cleared first).
func (p *rsLP) loadCol(j int, w []float64) {
	for i := range w {
		w[i] = 0
	}
	col := &p.cols[j]
	for t, i := range col.ind {
		w[i] = col.val[t]
	}
}

// nonbasicValue returns the bound a nonbasic column currently sits at.
func (p *rsLP) nonbasicValue(j int) float64 {
	if p.status[j] == atUpper {
		return p.up[j]
	}
	return p.lo[j]
}

// recomputeXB refreshes the basic solution from the raw right-hand side:
// x_B = B⁻¹ (b − N x_N). Called at every refactorization, it resets the
// additive drift that incremental xB updates accumulate.
func (p *rsLP) recomputeXB() {
	x := p.w
	copy(x, p.b)
	for j := 0; j < p.n; j++ {
		if p.status[j] == isBasic {
			continue
		}
		v := p.nonbasicValue(j)
		if zero(v) {
			continue
		}
		col := &p.cols[j]
		for t, i := range col.ind {
			x[i] -= col.val[t] * v
		}
	}
	p.ftran(x)
	copy(p.xB, x)
}

// reinvScratch is refactorize's working storage, kept on the rsLP so that
// repeated reinversions of one solve allocate only the new eta file.
type reinvScratch struct {
	order []uint64  // basis columns in processing order, as sort keys
	basis []int     // the reordered basis under construction
	w     []float64 // the column being FTRAN'd; zero outside pat
	pat   []uint64  // bitset of the rows w has touched
	pivAt []int32   // row → index of the eta that pivoted it, or rowFree / rowIdentity
	heap  []int32   // min-heap of the etas still to apply to w
}

const (
	rowFree     = -1 // row not pivoted yet
	rowIdentity = -2 // row pivoted by an identity eta, which is not stored
)

func newReinvScratch(m int) *reinvScratch {
	return &reinvScratch{
		order: make([]uint64, 0, m),
		basis: make([]int, m),
		w:     make([]float64, m),
		pat:   make([]uint64, (m+63)/64),
		pivAt: make([]int32, m),
	}
}

// refactorize rebuilds the eta file from the current basis by reinversion:
// basis columns are processed singletons-first then by increasing nonzero
// count, each FTRAN'd against the partial file, pivoting on its largest
// remaining entry (ties go to the lowest row). The basis is reordered so
// basis[r] is the column pivoted at row r — PFI needs no separate
// permutation. On success xB is recomputed from b; on a singular basis the
// state is left untouched and errSingularBasis is returned.
//
// The work follows the nonzeros, not m²: a column's FTRAN visits only the
// etas whose pivot rows its pattern reaches, in file order, and the pivot
// scan and eta build walk the pattern's bitset in ascending row order,
// which keeps every sum in the order a dense sweep would use. An eta that
// is exactly the identity (a +1 singleton) is not stored, but still counts
// one nonzero in etaNNZ.
func (p *rsLP) refactorize() error {
	p.refactors++
	if p.reinv == nil {
		p.reinv = newReinvScratch(p.m)
	}
	rs := p.reinv
	cols := p.cols
	// Sort keys pack (nonzero count, column) so a plain integer sort gives
	// the processing order.
	order := rs.order[:0]
	for _, j := range p.basis {
		order = append(order, uint64(len(cols[j].ind))<<32|uint64(j))
	}
	slices.Sort(order)
	rs.order = order
	for i := range rs.pivAt {
		rs.pivAt[i] = rowFree
	}
	etas := make([]eta, 0, p.m)
	slab := max(p.baseNNZ, p.m)
	slabInd, slabVal := make([]int32, 0, slab), make([]float64, 0, slab)
	nnz := 0
	w := rs.w
	for _, key := range order {
		j := int(uint32(key))
		rs.ftran(&cols[j], etas)
		r := rs.pivotRow()
		if r < 0 {
			rs.clear()
			return errSingularBasis
		}
		pivInv := 1 / w[r]
		start := len(slabInd)
		for wi, word := range rs.pat {
			rs.pat[wi] = 0
			for ; word != 0; word &= word - 1 {
				i := wi<<6 | bits.TrailingZeros64(word)
				v := w[i]
				w[i] = 0
				if i == r || zero(v) {
					continue
				}
				if v = -v * pivInv; math.Abs(v) >= etaDropTol {
					slabInd = append(slabInd, int32(i))
					slabVal = append(slabVal, v)
				}
			}
		}
		end := len(slabInd)
		nnz += end - start + 1
		rs.basis[r] = j
		if end == start && zero(pivInv-1) {
			rs.pivAt[r] = rowIdentity
			continue
		}
		rs.pivAt[r] = int32(len(etas))
		etas = append(etas, eta{r: int32(r), pivInv: pivInv,
			ind: slabInd[start:end:end], val: slabVal[start:end:end]})
	}
	p.etas, p.etaNNZ, p.baseNNZ, p.pivots = etas, nnz, nnz, 0
	p.basis, rs.basis = rs.basis, p.basis
	p.recomputeXB()
	return nil
}

// ftran scatters col into w and applies the partial eta file to it, the
// way ftranEtas would but visiting only the etas whose pivot row the
// column's pattern reaches. The etas run in file order: an eta can only
// queue later ones, so the min-heap pops them ascending.
func (rs *reinvScratch) ftran(col *spCol, etas []eta) {
	w := rs.w
	for t, i := range col.ind {
		rs.touch(i, rowFree)
		w[i] = col.val[t]
	}
	for len(rs.heap) > 0 {
		k := rs.pop()
		e := &etas[k]
		xr := w[e.r]
		if zero(xr) {
			continue
		}
		w[e.r] = e.pivInv * xr
		for t, i := range e.ind {
			rs.touch(i, k)
			w[i] += e.val[t] * xr
		}
	}
}

// touch adds row i to w's pattern. On first touch the eta that pivoted i
// is queued if it comes after eta k in the file; an earlier one has
// already been passed with w[i] = 0.
func (rs *reinvScratch) touch(i, k int32) {
	word, bit := i>>6, uint64(1)<<(i&63)
	if rs.pat[word]&bit != 0 {
		return
	}
	rs.pat[word] |= bit
	if e := rs.pivAt[i]; e > k {
		rs.push(e)
	}
}

// pivotRow returns the unpivoted row of w's pattern with the largest
// magnitude above pivotTol, the lowest such row on ties, or -1.
func (rs *reinvScratch) pivotRow() int {
	r, best := -1, pivotTol
	for wi, word := range rs.pat {
		for ; word != 0; word &= word - 1 {
			i := wi<<6 | bits.TrailingZeros64(word)
			if rs.pivAt[i] != rowFree {
				continue
			}
			if a := math.Abs(rs.w[i]); a > best {
				best, r = a, i
			}
		}
	}
	return r
}

// clear zeroes w and its pattern.
func (rs *reinvScratch) clear() {
	for wi, word := range rs.pat {
		rs.pat[wi] = 0
		for ; word != 0; word &= word - 1 {
			rs.w[wi<<6|bits.TrailingZeros64(word)] = 0
		}
	}
}

func (rs *reinvScratch) push(k int32) {
	h := append(rs.heap, k)
	i := len(h) - 1
	for i > 0 {
		up := (i - 1) / 2
		if h[up] <= k {
			break
		}
		h[i] = h[up]
		i = up
	}
	h[i] = k
	rs.heap = h
}

func (rs *reinvScratch) pop() int32 {
	h := rs.heap
	top, n := h[0], len(h)-1
	last := h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if last <= h[c] {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	rs.heap = h
	return top
}

// factor is what a reinversion leaves behind: the basis reordered so that
// basis[r] is the column pivoted at row r, and the eta file with its fill
// (etaNNZ = baseNNZ = nnz). refactorize derives it from the basic set and
// the lowering's columns alone, never from bounds or statuses, so one
// factor serves every LP on the same lowering with that basic set. It is
// read-only once built: etas is capped at its length, so an LP that
// installs it and pivots on appends to a copy.
type factor struct {
	basis []int
	etas  []eta
	nnz   int
}

// factor returns the reinversion p holds. Call it right after refactorize
// and before any pivot, and only when p is being discarded: the factor
// keeps p's basis slice.
func (p *rsLP) factor() *factor {
	return &factor{basis: p.basis, etas: p.etas[:len(p.etas):len(p.etas)], nnz: p.baseNNZ}
}

// install loads f in place of a reinversion and recomputes xB under p's
// own bounds, which leaves p exactly as refactorize would: the same basis
// order, eta file, fill and basic solution, with no reinversion counted.
// f must come from a lowering with p's columns. It reports false, changing
// nothing, when f's basic set is not p's.
func (p *rsLP) install(f *factor) bool {
	if len(f.basis) != p.m {
		return false
	}
	for _, j := range f.basis {
		if p.status[j] != isBasic {
			return false
		}
	}
	copy(p.basis, f.basis)
	p.etas, p.etaNNZ, p.baseNNZ, p.pivots = f.etas, f.nnz, f.nnz, 0
	p.recomputeXB()
	return true
}

// etaBudget is the nonzero cap that forces early reinversion when pivots
// produce unusually dense eta columns. It is relative to the fill the last
// reinversion left: a basis whose own factorization is dense would
// otherwise sit above a fixed cap and reinvert after every pivot or two,
// a livelock in which the simplex makes almost no progress.
func (p *rsLP) etaBudget() int { return 2*p.baseNNZ + 16*p.m + 1024 }

// chooseEntering prices every active nonbasic column against the simplex
// multipliers y (Dantzig rule; first-improving-index under Bland) and
// returns the entering column and its direction, or (-1, 0) at optimality.
func (p *rsLP) chooseEntering(c, y []float64, bland bool) (int, float64) {
	bestJ, bestScore, bestDir := -1, costTol, 0.0
	for j := 0; j < p.activeN; j++ {
		st := p.status[j]
		if st == isBasic || zero(p.up[j]-p.lo[j]) {
			continue
		}
		d := c[j]
		col := &p.cols[j]
		for t, i := range col.ind {
			d -= y[i] * col.val[t]
		}
		var score, dir float64
		if st == atLower {
			score, dir = -d, 1
		} else {
			score, dir = d, -1
		}
		if score > bestScore {
			if bland {
				return j, dir
			}
			bestJ, bestScore, bestDir = j, score, dir
		}
	}
	return bestJ, bestDir
}

// ratioTest computes how far entering column q may move in direction dir,
// given its FTRAN'd column w. It returns flip=true if q's own opposite
// bound is the binding limit; otherwise the leaving row r (ties go to the
// smallest basic index) and whether the leaving basic variable hits its
// upper bound.
func (p *rsLP) ratioTest(q int, dir float64, w []float64) (flip bool, r int, hitUpper bool, t float64, err error) {
	t = math.Inf(1)
	if !math.IsInf(p.up[q], 1) {
		t = p.up[q] - p.lo[q]
	}
	flip = true
	r = -1
	for i := 0; i < p.m; i++ {
		a := w[i]
		if math.Abs(a) < pivotTol {
			continue
		}
		rate := -a * dir
		b := p.basis[i]
		var ti float64
		var toUpper bool
		if rate < 0 {
			ti = (p.xB[i] - p.lo[b]) / -rate
		} else {
			if math.IsInf(p.up[b], 1) {
				continue
			}
			ti = (p.up[b] - p.xB[i]) / rate
			toUpper = true
		}
		if ti < 0 {
			ti = 0
		}
		if ti < t-1e-12 || (ti < t+1e-12 && r >= 0 && p.basis[i] < p.basis[r]) {
			t, flip, r, hitUpper = ti, false, i, toUpper
		}
	}
	if math.IsInf(t, 1) {
		return false, -1, false, 0, errUnbounded
	}
	return flip, r, hitUpper, t, nil
}

// tick counts one simplex iteration against the iteration limit and
// checks the context. The check runs every iteration, not on a stride:
// one revised pivot is O(nnz + eta file), so a strided check could
// overshoot on big models while time.Now() costs nanoseconds.
func (p *rsLP) tick() error {
	p.iters++
	if p.iters > p.maxIters {
		return errIterLimit
	}
	if p.ctx != nil && expired(p.ctx) {
		return errTimeLimit
	}
	return nil
}

// expired reports whether ctx is done or past its deadline. The clock is
// read as well because a context's timer closes Done only some time after
// the deadline passes.
func expired(ctx context.Context) bool {
	if d, ok := ctx.Deadline(); ok && time.Now().After(d) {
		return true
	}
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// optimize runs the revised bounded-variable primal simplex for cost
// vector c until optimality, with a stall-window Bland's-rule fallback as
// the anti-cycling guard: after blandThreshold
// consecutive degenerate pivots the entering rule switches to
// first-improving-index, which cannot cycle.
func (p *rsLP) optimize(c []float64) error {
	noImprove := 0
	blandThreshold := 4 * (p.m + 64)
	for {
		if err := p.tick(); err != nil {
			return err
		}
		// Pricing: y = B⁻ᵀ c_B, then reduced costs column by column.
		y := p.y
		for i := range y {
			y[i] = 0
		}
		for i, b := range p.basis {
			if cb := c[b]; !zero(cb) {
				y[i] = cb
			}
		}
		p.btran(y)
		bland := noImprove > blandThreshold
		q, dir := p.chooseEntering(c, y, bland)
		if q < 0 {
			return nil // optimal
		}
		w := p.w
		p.loadCol(q, w)
		p.ftran(w)
		flip, r, hitUpper, t, err := p.ratioTest(q, dir, w)
		if err != nil {
			return err
		}
		if t > 1e-12 {
			noImprove = 0
		} else {
			noImprove++
		}
		if flip {
			for i := range p.xB {
				if !zero(w[i]) {
					p.xB[i] -= w[i] * dir * t
				}
			}
			if p.status[q] == atLower {
				p.status[q] = atUpper
			} else {
				p.status[q] = atLower
			}
			continue
		}
		start := p.lo[q]
		if p.status[q] == atUpper {
			start = p.up[q]
		}
		for i := range p.xB {
			if i != r && !zero(w[i]) {
				p.xB[i] -= w[i] * dir * t
			}
		}
		leaving := p.basis[r]
		if hitUpper {
			p.status[leaving] = atUpper
		} else {
			p.status[leaving] = atLower
		}
		p.basis[r] = q
		p.status[q] = isBasic
		p.xB[r] = start + dir*t
		p.appendEta(w, r)
		if p.pivots >= refactorEvery || p.etaNNZ > p.etaBudget() {
			if err := p.refactorize(); err != nil {
				return err
			}
		}
	}
}

// value returns the current value of column j.
func (p *rsLP) value(j int) float64 {
	switch p.status[j] {
	case atLower:
		return p.lo[j]
	case atUpper:
		return p.up[j]
	default:
		for i, b := range p.basis {
			if b == j {
				return p.xB[i]
			}
		}
	}
	//lint:ignore panicfree defensive invariant: status/basis desync would be a simplex bug, not bad input
	panic("ilp: basic variable not in basis")
}

// solution extracts structural variable values.
func (p *rsLP) solution() []float64 {
	x := make([]float64, p.nStruct)
	for j := range x {
		switch p.status[j] {
		case atLower:
			x[j] = p.lo[j]
		case atUpper:
			x[j] = p.up[j]
		}
	}
	for i, b := range p.basis {
		if b < p.nStruct {
			x[b] = p.xB[i]
		}
	}
	return x
}

// lpResult is the outcome of one LP relaxation solve.
type lpResult struct {
	status Status
	x      []float64
	obj    float64
	iters  int
	// refactors counts the solve's basis reinversions, those of a failed
	// attempt included.
	refactors int
	// basis is the optimal basis in the sparse lowering's column layout
	// (nil unless the LP was solved to optimality).
	basis basisSnap
	// factor is the reinversion of that basis on the solve's own lowering
	// (nil unless optimal).
	factor *factor
}

// solveLP solves the LP relaxation of mod with the given bound overrides.
// A numerical failure is returned as an error. A context that is cancelled
// or past its deadline aborts the solve with errTimeLimit.
func solveLP(ctx context.Context, mod *Model, lbs, ubs []float64) (lpResult, error) {
	p, err := lowerSparse(mod, lbs, ubs)
	if err != nil {
		if errors.Is(err, errBoundsInfeasible) {
			return lpResult{status: StatusInfeasible}, nil
		}
		return lpResult{}, err
	}
	p.ctx = ctx
	// Phase 1: minimize the sum of artificial variables.
	phase1 := make([]float64, p.n)
	for j := p.firstArt; j < p.n; j++ {
		phase1[j] = 1
	}
	if err := p.optimize(phase1); err != nil {
		if errors.Is(err, errUnbounded) {
			// Phase 1 is bounded below by 0; treat as numerical failure.
			return lpResult{}, errIterLimit
		}
		return p.result(StatusNoSolution), err
	}
	infeas := 0.0
	for j := p.firstArt; j < p.n; j++ {
		infeas += p.value(j)
	}
	if infeas > feasTol {
		return p.result(StatusInfeasible), nil
	}
	// Pin artificials at zero for phase 2 and drop them from pricing; a
	// still-basic artificial stays parked at zero.
	for j := p.firstArt; j < p.n; j++ {
		p.up[j] = 0
	}
	p.activeN = p.firstArt
	for i, b := range p.basis {
		if b >= p.firstArt && p.xB[i] < feasTol {
			p.xB[i] = 0 // clamp tiny residue
		}
	}
	if err := p.optimize(p.cost); err != nil {
		if errors.Is(err, errUnbounded) {
			return p.result(StatusUnbounded), nil
		}
		return p.result(StatusNoSolution), err
	}
	return p.finish(lbs, ubs)
}

// finish extracts an optimal solution. The final reinversion wipes the eta
// drift accumulated since the last refactorization; failure there means
// the optimal basis itself is numerically singular, and is reported as an
// error. The result carries the optimal basis and its reinversion, so
// branch & bound can warm-start the node's children from the one and
// install the other. p must not be used afterwards.
func (p *rsLP) finish(lbs, ubs []float64) (lpResult, error) {
	if err := p.refactorize(); err != nil {
		return p.result(StatusNoSolution), err
	}
	x := p.solution()
	// Exit feasibility: an optimal basis whose solution leaves its box is
	// a simplex bookkeeping bug, never a property of the model.
	if err := invariant.BoundedValues("ilp.lp-solution", x, lbs, ubs, 10*feasTol); err != nil {
		return p.result(StatusNoSolution), err
	}
	obj := 0.0
	for j, v := range x {
		obj += p.cost[j] * v
	}
	res := p.result(StatusOptimal)
	res.x, res.obj, res.basis, res.factor = x, obj, p.snapshot(), p.factor()
	return res, nil
}

// result reports the solve's status and the work it has done so far.
func (p *rsLP) result(st Status) lpResult {
	return lpResult{status: st, iters: p.iters, refactors: p.refactors}
}
