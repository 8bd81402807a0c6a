package xbar

import (
	"context"
	"fmt"
	"time"

	"compact/internal/defect"
	"compact/internal/ilp"
	"compact/internal/invariant"
)

// Defect-aware placement
//
// PlaceContext searches for row and column permutations of a logical design onto
// a defective physical array such that every crossing is compatible with
// the device fabricated there:
//
//   - a stuck-OFF device can only carry an Off cell (a literal or stitch
//     placed there would lose its path);
//   - a stuck-ON device can only carry an On cell (anything else — a
//     literal that must be able to open, or an Off cell whose crossing
//     must stay isolated — would let the stuck device bridge an
//     unintended sneak path);
//   - a healthy device carries anything.
//
// Physical lines the placement leaves unused are spare wordlines/bitlines,
// assumed disconnected, so their faults are harmless (see defects.go).
//
// The search runs in two escalating stages under one context: a seeded
// greedy alternating bipartite matching (rows given columns, columns given
// rows, a few rounds with randomized tie-breaking), and — when the greedy
// search fails — an exact 0-1 ILP assignment formulation solved by
// internal/ilp under the shared deadline discipline. A proven-infeasible
// ILP yields an *Unplaceable error with Proven set and a witness naming
// the most constrained logical row.

// PlaceEngine selects the placement search strategy.
type PlaceEngine uint8

// Placement engines.
const (
	PlaceAuto   PlaceEngine = iota // greedy first, exact ILP on failure
	PlaceGreedy                    // greedy matching only
	PlaceILP                       // exact ILP only
)

func (e PlaceEngine) String() string {
	switch e {
	case PlaceGreedy:
		return "greedy"
	case PlaceILP:
		return "ilp"
	}
	return "auto"
}

// PlaceOptions tunes PlaceContext. The zero value is the production default.
type PlaceOptions struct {
	// Engine picks the search strategy (default PlaceAuto).
	Engine PlaceEngine
	// Seed randomizes greedy tie-breaking; distinct seeds explore distinct
	// placements, which is what the verified-repair loop retries with.
	Seed uint64
	// Rounds bounds the greedy alternating refinement (default 4).
	Rounds int
	// MaxModelSize caps the ILP escalation's size — binary variables plus
	// constraints (default 4000). Larger models skip the exact stage with a
	// non-proven Unplaceable rather than stall: the dense-tableau simplex
	// behind internal/ilp is only effective on small assignment models.
	MaxModelSize int
	// ILPTimeLimit bounds a single exact solve (default 10s; the shared
	// ctx deadline still applies and wins when earlier). Exhausting it
	// yields a non-proven Unplaceable, never a fabricated verdict.
	ILPTimeLimit time.Duration
}

func (o PlaceOptions) withDefaults() PlaceOptions {
	if o.Rounds <= 0 {
		o.Rounds = 4
	}
	if o.MaxModelSize <= 0 {
		o.MaxModelSize = 4000
	}
	if o.ILPTimeLimit <= 0 {
		o.ILPTimeLimit = 10 * time.Second
	}
	return o
}

// Placement binds each logical row/column of a design to a physical
// wordline/bitline of the defective array it was placed onto.
type Placement struct {
	// RowPerm[r] / ColPerm[c] is the physical line carrying logical row r
	// / logical column c. Both are injective into the physical array.
	RowPerm, ColPerm []int
	// Engine records which search stage produced the placement:
	// "identity", "greedy" or "ilp".
	Engine string
}

// Unplaceable reports that no placement of the design onto the defective
// array was found. Proven distinguishes a certificate of infeasibility
// (the exact ILP stage exhausted the search space) from a search that
// merely came up empty. The witness names the most constrained logical
// row: LogicalRow had only Candidates compatible physical wordlines under
// the last column permutation tried.
type Unplaceable struct {
	Stage      string // search stage that gave up: "dims", "precheck", "greedy" or "ilp"
	Detail     string
	LogicalRow int // witness row (-1 when the failure is not row-shaped)
	Candidates int // compatible physical rows for LogicalRow
	Proven     bool
}

func (u *Unplaceable) Error() string {
	msg := fmt.Sprintf("xbar: design unplaceable (%s stage): %s", u.Stage, u.Detail)
	if u.LogicalRow >= 0 {
		msg += fmt.Sprintf("; witness: logical row %d has %d compatible physical wordline(s)", u.LogicalRow, u.Candidates)
	}
	if u.Proven {
		msg += " [proven infeasible]"
	}
	return msg
}

// compatCell reports whether a logical cell may occupy a device stuck in
// state k (see the package comment's compatibility table).
func compatCell(e Entry, k defect.Kind) bool {
	switch k {
	case defect.StuckOff:
		return e.Kind == Off
	case defect.StuckOn:
		return e.Kind == On
	}
	return true
}

// placer carries the immutable search inputs: the design, the defect map
// and the faults grouped by physical row and column (deterministic order).
type placer struct {
	d     *Design
	dm    *defect.Map
	byRow map[int][]defect.Cell
	byCol map[int][]defect.Cell
}

func newPlacer(d *Design, dm *defect.Map) *placer {
	p := &placer{d: d, dm: dm, byRow: map[int][]defect.Cell{}, byCol: map[int][]defect.Cell{}}
	for _, fc := range dm.Cells() {
		p.byRow[fc.Row] = append(p.byRow[fc.Row], fc)
		p.byCol[fc.Col] = append(p.byCol[fc.Col], fc)
	}
	return p
}

// rowOK reports whether logical row r may occupy physical row pr, given
// the logical column (or -1 = unused) each physical column carries.
func (p *placer) rowOK(r, pr int, invCol []int) bool {
	for _, fc := range p.byRow[pr] {
		if c := invCol[fc.Col]; c >= 0 && !compatCell(p.d.Cells[r][c], fc.Kind) {
			return false
		}
	}
	return true
}

// colOK is the column-side dual of rowOK.
func (p *placer) colOK(c, pc int, invRow []int) bool {
	for _, fc := range p.byCol[pc] {
		if r := invRow[fc.Row]; r >= 0 && !compatCell(p.d.Cells[r][c], fc.Kind) {
			return false
		}
	}
	return true
}

// compatible reports whether the full placement satisfies every crossing.
func (p *placer) compatible(rowPerm, colPerm []int) bool {
	if p.dm.Len() == 0 {
		return true // no faults (or nil map): every placement is compatible
	}
	invRow := inversePerm(rowPerm, p.dm.Rows())
	invCol := inversePerm(colPerm, p.dm.Cols())
	for _, fc := range p.dm.Cells() {
		r, c := invRow[fc.Row], invCol[fc.Col]
		if r >= 0 && c >= 0 && !compatCell(p.d.Cells[r][c], fc.Kind) {
			return false
		}
	}
	return true
}

// witness finds the most constrained logical row under invCol: the row
// with the fewest compatible physical wordlines.
func (p *placer) witness(invCol []int) (row, candidates int) {
	row, candidates = -1, p.dm.Rows()+1
	for r := 0; r < p.d.Rows; r++ {
		n := 0
		for pr := 0; pr < p.dm.Rows(); pr++ {
			if p.rowOK(r, pr, invCol) {
				n++
			}
		}
		if n < candidates {
			row, candidates = r, n
		}
	}
	return row, candidates
}

// provenInfeasible is a cheap sound infeasibility certificate, checked
// before any search runs. Relaxing column injectivity, logical row r can
// only occupy physical row pr when every cell kind present in r has at
// least one compatible device on pr (a Lit needs a healthy column, an On a
// healthy or stuck-ON one, an Off a healthy or stuck-OFF one) — a
// necessary condition that reduces to per-physical-row fault counts. If
// even this relaxed row-to-wordline relation admits no perfect matching,
// no placement exists, and the unmatchable relation yields a witness. A
// nil return proves nothing; the search stages still decide.
func (p *placer) provenInfeasible() *Unplaceable {
	type profile struct{ hasLit, hasOn, hasOff bool }
	rows := make([]profile, p.d.Rows)
	for r, row := range p.d.Cells {
		for _, e := range row {
			switch e.Kind {
			case Lit:
				rows[r].hasLit = true
			case On:
				rows[r].hasOn = true
			default:
				rows[r].hasOff = true
			}
		}
	}
	stuckOff := make([]int, p.dm.Rows())
	stuckOn := make([]int, p.dm.Rows())
	for _, fc := range p.dm.Cells() {
		if fc.Kind == defect.StuckOff {
			stuckOff[fc.Row]++
		} else {
			stuckOn[fc.Row]++
		}
	}
	possible := func(r, pr int) bool {
		healthy := p.dm.Cols() - stuckOff[pr] - stuckOn[pr]
		if rows[r].hasLit && healthy == 0 {
			return false
		}
		if rows[r].hasOn && healthy == 0 && stuckOn[pr] == 0 {
			return false
		}
		if rows[r].hasOff && healthy == 0 && stuckOff[pr] == 0 {
			return false
		}
		return true
	}
	natural := make([]int, p.dm.Rows())
	for i := range natural {
		natural[i] = i
	}
	if _, ok := kuhn(p.d.Rows, p.dm.Rows(), possible, natural); ok {
		return nil
	}
	row, candidates := -1, p.dm.Rows()+1
	for r := 0; r < p.d.Rows; r++ {
		n := 0
		for pr := 0; pr < p.dm.Rows(); pr++ {
			if possible(r, pr) {
				n++
			}
		}
		if n < candidates {
			row, candidates = r, n
		}
	}
	return &Unplaceable{
		Stage:      "precheck",
		Detail:     fmt.Sprintf("no wordline assignment exists even ignoring column injectivity (%d faults on %dx%d)", p.dm.Len(), p.dm.Rows(), p.dm.Cols()),
		LogicalRow: row,
		Candidates: candidates,
		Proven:     true,
	}
}

// PlaceContext searches for a placement of d onto the defective array dm.
// A fault-free fit returns the identity placement immediately. Otherwise a
// seeded greedy matching runs first, escalating to the exact ILP
// assignment formulation (under ctx's deadline) when greedy fails and the
// engine allows it. When no placement exists — or none is found within
// the search budget — the returned error is an *Unplaceable carrying a
// witness; a placement is only ever returned after re-checking every
// defective crossing, so a buggy search can not hand back an incompatible
// binding silently.
func PlaceContext(ctx context.Context, d *Design, dm *defect.Map, opts PlaceOptions) (*Placement, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	physRows, physCols := dm.Rows(), dm.Cols()
	if dm == nil {
		physRows, physCols = d.Rows, d.Cols
	}
	if physRows < d.Rows || physCols < d.Cols {
		return nil, &Unplaceable{
			Stage:      "dims",
			Detail:     fmt.Sprintf("%dx%d design exceeds the %dx%d physical array", d.Rows, d.Cols, physRows, physCols),
			LogicalRow: -1,
			Proven:     true,
		}
	}
	identity := func(n int) []int {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		return perm
	}
	p := newPlacer(d, dm)
	if dm.Len() == 0 {
		// No faults (or nil map): every binding computes the same design,
		// so identity is canonical regardless of the requested engine.
		return p.finish(&Placement{RowPerm: identity(d.Rows), ColPerm: identity(d.Cols), Engine: "identity"})
	}
	// The identity shortcut yields to an explicitly forced exact engine:
	// callers (core's repair loop) force PlaceILP to explore beyond a
	// placement that failed downstream verification, and short-circuiting
	// every such retry back to the same identity binding would defeat it.
	if opts.Engine != PlaceILP && p.compatible(identity(d.Rows), identity(d.Cols)) {
		return p.finish(&Placement{RowPerm: identity(d.Rows), ColPerm: identity(d.Cols), Engine: "identity"})
	}
	if up := p.provenInfeasible(); up != nil {
		return nil, up
	}

	var lastInvCol []int
	if opts.Engine != PlaceILP {
		pl, invCol, err := p.greedy(ctx, opts, false)
		if err != nil {
			return nil, err
		}
		if pl != nil {
			return p.finish(pl)
		}
		lastInvCol = invCol
	}
	if opts.Engine == PlaceGreedy {
		row, cand := p.witness(lastInvCol)
		return nil, &Unplaceable{
			Stage:      "greedy",
			Detail:     fmt.Sprintf("greedy matching found no placement in %d rounds (%d faults)", opts.Rounds, dm.Len()),
			LogicalRow: row,
			Candidates: cand,
		}
	}
	pl, err := p.ilp(ctx, opts, lastInvCol)
	if err != nil {
		return nil, err
	}
	return p.finish(pl)
}

// finish re-validates the placement against every defective crossing —
// the postcondition gate between the search stages and the caller.
func (p *placer) finish(pl *Placement) (*Placement, error) {
	if err := checkInjective(pl.RowPerm, maxInt(p.dm.Rows(), p.d.Rows), "row"); err != nil {
		return nil, err
	}
	if err := checkInjective(pl.ColPerm, maxInt(p.dm.Cols(), p.d.Cols), "column"); err != nil {
		return nil, err
	}
	if !p.compatible(pl.RowPerm, pl.ColPerm) {
		return nil, invariant.Violationf("xbar.place-compatible",
			"%s placement binds an incompatible crossing onto a stuck device", pl.Engine)
	}
	return pl, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// greedy runs the alternating matching rounds. It returns a non-nil
// placement on success; on failure it returns the last column inverse
// tried, for witness computation. With shuffleAll, even round 0 uses
// randomized tie-breaking — candidate enumeration wants seed diversity,
// whereas single-placement search wants round 0 near-identity.
func (p *placer) greedy(ctx context.Context, opts PlaceOptions, shuffleAll bool) (*Placement, []int, error) {
	rng := opts.Seed*6364136223846793005 + 1442695040888963407
	next := func(bound int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(bound))
	}
	order := func(n int, shuffle bool) []int {
		o := make([]int, n)
		for i := range o {
			o[i] = i
		}
		if shuffle {
			for i := n - 1; i > 0; i-- {
				j := next(i + 1)
				o[i], o[j] = o[j], o[i]
			}
		}
		return o
	}

	colPerm := make([]int, p.d.Cols)
	for i := range colPerm {
		colPerm[i] = i
	}
	invCol := inversePerm(colPerm, p.dm.Cols())
	for round := 0; round < opts.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, invCol, err
		}
		shuffle := shuffleAll || round > 0 // round 0 prefers near-identity bindings
		rowPerm, okRows := kuhn(p.d.Rows, p.dm.Rows(), func(r, pr int) bool {
			return p.rowOK(r, pr, invCol)
		}, order(p.dm.Rows(), shuffle))
		if okRows {
			invRow := inversePerm(rowPerm, p.dm.Rows())
			newColPerm, okCols := kuhn(p.d.Cols, p.dm.Cols(), func(c, pc int) bool {
				return p.colOK(c, pc, invRow)
			}, order(p.dm.Cols(), shuffle))
			if okCols {
				colPerm = newColPerm
				invCol = inversePerm(colPerm, p.dm.Cols())
				if p.compatible(rowPerm, colPerm) {
					return &Placement{RowPerm: rowPerm, ColPerm: colPerm, Engine: "greedy"}, invCol, nil
				}
				continue
			}
		}
		// Re-randomize the column side before the next row attempt.
		colPerm = order(p.dm.Cols(), true)[:p.d.Cols]
		invCol = inversePerm(colPerm, p.dm.Cols())
	}
	return nil, invCol, nil
}

// kuhn computes a maximum bipartite matching of nLeft logical lines onto
// nRight physical lines via augmenting paths, trying physical candidates
// in the given order. It returns the left-side assignment and whether
// every logical line was matched.
func kuhn(nLeft, nRight int, ok func(l, r int) bool, order []int) ([]int, bool) {
	matchL := make([]int, nLeft)
	matchR := make([]int, nRight)
	for i := range matchL {
		matchL[i] = -1
	}
	for i := range matchR {
		matchR[i] = -1
	}
	var try func(l int, seen []bool) bool
	try = func(l int, seen []bool) bool {
		for _, r := range order {
			if seen[r] || !ok(l, r) {
				continue
			}
			seen[r] = true
			if matchR[r] < 0 || try(matchR[r], seen) {
				matchL[l], matchR[r] = r, l
				return true
			}
		}
		return false
	}
	complete := true
	for l := 0; l < nLeft; l++ {
		if !try(l, make([]bool, nRight)) {
			complete = false
		}
	}
	return matchL, complete
}

// ilp escalates to the exact 0-1 assignment formulation: binary x[r,pr] /
// y[c,pc] selection variables, one-physical-line-per-logical-line
// assignment constraints, and a conflict constraint x[r,pr]+y[c,pc] <= 1
// for every (logical cell, stuck device) pair the compatibility table
// forbids. The objective prefers near-identity placements (minimal line
// displacement), which keeps the result deterministic and physically
// local. Infeasibility here is a proof: no placement exists.
func (p *placer) ilp(ctx context.Context, opts PlaceOptions, lastInvCol []int) (*Placement, error) {
	d, dm := p.d, p.dm
	nConflicts := 0
	for _, fc := range dm.Cells() {
		for r := 0; r < d.Rows; r++ {
			for c := 0; c < d.Cols; c++ {
				if !compatCell(d.Cells[r][c], fc.Kind) {
					nConflicts++
				}
			}
		}
	}
	baseConstrs := d.Rows + dm.Rows() + d.Cols + dm.Cols()
	nBinaries := d.Rows*dm.Rows() + d.Cols*dm.Cols()
	if size := nBinaries + nConflicts + baseConstrs; size > opts.MaxModelSize {
		row, cand := p.witness(p.lastOrIdentityInvCol(lastInvCol))
		return nil, &Unplaceable{
			Stage:      "ilp",
			Detail:     fmt.Sprintf("greedy search failed and the exact model would need %d variables+constraints (cap %d)", size, opts.MaxModelSize),
			LogicalRow: row,
			Candidates: cand,
		}
	}

	mod := ilp.NewModel("place")
	xVar := func(r, pr int) int { return r*dm.Rows() + pr }
	yBase := d.Rows * dm.Rows()
	yVar := func(c, pc int) int { return yBase + c*dm.Cols() + pc }
	abs := func(v int) float64 {
		if v < 0 {
			return float64(-v)
		}
		return float64(v)
	}
	for r := 0; r < d.Rows; r++ {
		for pr := 0; pr < dm.Rows(); pr++ {
			mod.AddVar(fmt.Sprintf("x_%d_%d", r, pr), 0, 1, ilp.Binary, abs(r-pr))
		}
	}
	for c := 0; c < d.Cols; c++ {
		for pc := 0; pc < dm.Cols(); pc++ {
			mod.AddVar(fmt.Sprintf("y_%d_%d", c, pc), 0, 1, ilp.Binary, abs(c-pc))
		}
	}
	for r := 0; r < d.Rows; r++ {
		terms := make([]ilp.Term, dm.Rows())
		for pr := range terms {
			terms[pr] = ilp.Term{Var: xVar(r, pr), Coeff: 1}
		}
		mod.AddConstr(fmt.Sprintf("row_%d", r), terms, ilp.EQ, 1)
	}
	for pr := 0; pr < dm.Rows(); pr++ {
		terms := make([]ilp.Term, d.Rows)
		for r := range terms {
			terms[r] = ilp.Term{Var: xVar(r, pr), Coeff: 1}
		}
		mod.AddConstr(fmt.Sprintf("prow_%d", pr), terms, ilp.LE, 1)
	}
	for c := 0; c < d.Cols; c++ {
		terms := make([]ilp.Term, dm.Cols())
		for pc := range terms {
			terms[pc] = ilp.Term{Var: yVar(c, pc), Coeff: 1}
		}
		mod.AddConstr(fmt.Sprintf("col_%d", c), terms, ilp.EQ, 1)
	}
	for pc := 0; pc < dm.Cols(); pc++ {
		terms := make([]ilp.Term, d.Cols)
		for c := range terms {
			terms[c] = ilp.Term{Var: yVar(c, pc), Coeff: 1}
		}
		mod.AddConstr(fmt.Sprintf("pcol_%d", pc), terms, ilp.LE, 1)
	}
	for _, fc := range dm.Cells() {
		for r := 0; r < d.Rows; r++ {
			for c := 0; c < d.Cols; c++ {
				if compatCell(d.Cells[r][c], fc.Kind) {
					continue
				}
				mod.AddConstr(
					fmt.Sprintf("conflict_%d_%d_%d_%d", r, fc.Row, c, fc.Col),
					[]ilp.Term{{Var: xVar(r, fc.Row), Coeff: 1}, {Var: yVar(c, fc.Col), Coeff: 1}},
					ilp.LE, 1)
			}
		}
	}

	sol, err := ilp.SolveContext(ctx, mod, ilp.Options{
		TimeLimit: opts.ILPTimeLimit, Workers: ilp.DefaultWorkers(),
	})
	if err != nil {
		return nil, fmt.Errorf("xbar: placement ILP: %w", err)
	}
	switch sol.Status {
	case ilp.StatusOptimal, ilp.StatusFeasible:
		pl := &Placement{RowPerm: make([]int, d.Rows), ColPerm: make([]int, d.Cols), Engine: "ilp"}
		for r := 0; r < d.Rows; r++ {
			pl.RowPerm[r] = -1
			for pr := 0; pr < dm.Rows(); pr++ {
				if sol.X[xVar(r, pr)] > 0.5 {
					pl.RowPerm[r] = pr
					break
				}
			}
		}
		for c := 0; c < d.Cols; c++ {
			pl.ColPerm[c] = -1
			for pc := 0; pc < dm.Cols(); pc++ {
				if sol.X[yVar(c, pc)] > 0.5 {
					pl.ColPerm[c] = pc
					break
				}
			}
		}
		return pl, nil
	case ilp.StatusInfeasible:
		row, cand := p.witness(p.lastOrIdentityInvCol(lastInvCol))
		return nil, &Unplaceable{
			Stage:      "ilp",
			Detail:     fmt.Sprintf("exact assignment model is infeasible (%d faults on %dx%d)", dm.Len(), dm.Rows(), dm.Cols()),
			LogicalRow: row,
			Candidates: cand,
			Proven:     true,
		}
	default:
		// The search budget ran out before a placement or an infeasibility
		// proof was found. A cancelled/expired context surfaces as such;
		// otherwise this is exactly what a non-proven Unplaceable means —
		// the search came up empty, with no claim about existence.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("xbar: placement search: %w", err)
		}
		row, cand := p.witness(p.lastOrIdentityInvCol(lastInvCol))
		return nil, &Unplaceable{
			Stage:      "ilp",
			Detail:     fmt.Sprintf("exact solve stopped %s within its %v budget", sol.Status, opts.ILPTimeLimit),
			LogicalRow: row,
			Candidates: cand,
		}
	}
}

// PlaceCandidates enumerates up to max distinct compatible placements of d
// onto dm, for callers that rank placements by a secondary objective (the
// margin-aware repair loop scores each candidate's electrical margin). The
// identity placement, when compatible, is always the first candidate;
// further candidates come from greedy searches under derived seeds with
// fully randomized tie-breaking, deduplicated by permutation. Every
// returned placement has passed the same postcondition gate as
// PlaceContext's result. When at least one candidate exists the slice is
// returned even if the context expires mid-enumeration (anytime
// semantics); with none, the error is the usual *Unplaceable or ctx error.
func PlaceCandidates(ctx context.Context, d *Design, dm *defect.Map, opts PlaceOptions, max int) ([]*Placement, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if max <= 0 {
		max = 1
	}
	opts = opts.withDefaults()
	physRows, physCols := dm.Rows(), dm.Cols()
	if dm == nil {
		physRows, physCols = d.Rows, d.Cols
	}
	if physRows < d.Rows || physCols < d.Cols {
		return nil, &Unplaceable{
			Stage:      "dims",
			Detail:     fmt.Sprintf("%dx%d design exceeds the %dx%d physical array", d.Rows, d.Cols, physRows, physCols),
			LogicalRow: -1,
			Proven:     true,
		}
	}
	identity := func(n int) []int {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		return perm
	}
	p := newPlacer(d, dm)
	seen := map[string]bool{}
	var out []*Placement
	add := func(pl *Placement) error {
		key := fmt.Sprint(pl.RowPerm, pl.ColPerm)
		if seen[key] {
			return nil
		}
		v, err := p.finish(pl)
		if err != nil {
			return err
		}
		seen[key] = true
		out = append(out, v)
		return nil
	}
	if p.compatible(identity(d.Rows), identity(d.Cols)) {
		if err := add(&Placement{RowPerm: identity(d.Rows), ColPerm: identity(d.Cols), Engine: "identity"}); err != nil {
			return nil, err
		}
	}
	if dm.Len() == 0 {
		// No faults: every binding is electrically identical, so one
		// canonical candidate is the complete answer.
		return out, nil
	}
	if len(out) == 0 {
		if up := p.provenInfeasible(); up != nil {
			return nil, up
		}
	}
	seedOpts := opts
	for i := 0; i < 4*max && len(out) < max; i++ {
		if err := ctx.Err(); err != nil {
			if len(out) > 0 {
				return out, nil
			}
			return nil, err
		}
		seedOpts.Seed = opts.Seed + uint64(i)*0x9e3779b97f4a7c15
		pl, _, err := p.greedy(ctx, seedOpts, true)
		if err != nil {
			if len(out) > 0 {
				return out, nil
			}
			return nil, err
		}
		if pl != nil {
			if err := add(pl); err != nil {
				return nil, err
			}
		}
	}
	if len(out) == 0 {
		// Greedy enumeration found nothing at all; the exact stage settles
		// existence the same way PlaceContext would.
		pl, err := p.ilp(ctx, opts, nil)
		if err != nil {
			return nil, err
		}
		if err := add(pl); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// lastOrIdentityInvCol returns the witness column inverse: the last one
// the greedy stage tried, or identity when the ILP ran alone.
func (p *placer) lastOrIdentityInvCol(lastInvCol []int) []int {
	if lastInvCol != nil {
		return lastInvCol
	}
	colPerm := make([]int, p.d.Cols)
	for i := range colPerm {
		colPerm[i] = i
	}
	return inversePerm(colPerm, p.dm.Cols())
}
