package xbar

import (
	"context"
	"fmt"
	"strings"
	"time"

	"compact/internal/defect"
	"compact/internal/ilp"
	"compact/internal/invariant"
)

// Defect-aware placement
//
// One engine places every crossbar shape. It works on a plane stack: K
// wire layers and K-1 device planes, plane p joining layer p's wires (as
// rows) to layer p+1's wires (as columns), each plane landing on a
// physical plane described by its own defect.Map. A 2D Design is the K=2
// stack; a FLOW-3D xbar3d.Design3D is the K-layer one. A placement binds
// every logical wire of every layer to a physical wire of that layer so
// that each crossing is compatible with the device fabricated there:
//
//   - a stuck-OFF device can only carry an Off cell (a literal or stitch
//     placed there would lose its path);
//   - a stuck-ON device can only carry an On cell (anything else — a
//     literal that must be able to open, or an Off cell whose crossing
//     must stay isolated — would let the stuck device bridge an
//     unintended sneak path);
//   - a healthy device carries anything.
//
// Physical wires the placement leaves unused are spares, assumed
// disconnected, so their faults are harmless (see defects.go).
//
// The search runs in two escalating stages under one context: a seeded
// greedy alternating bipartite matching (each layer matched against both
// of its neighbouring planes given the neighbours' current bindings,
// 4·(K-1) sweeps with randomized tie-breaking), and — when the greedy
// search fails — an exact 0-1 ILP assignment formulation solved by
// internal/ilp under the shared deadline discipline. Every conflict is
// pairwise between two adjacent layers, so the ILP is the 2D assignment
// model with one block of variables per layer. A proven-infeasible ILP
// yields an *Unplaceable error with Proven set and a witness naming the
// most constrained layer-0 wire (a 2D design's logical row).

// PlaceEngine selects the placement search strategy.
type PlaceEngine uint8

// Placement engines.
const (
	PlaceAuto PlaceEngine = iota // greedy first, exact ILP on failure
	PlaceILP                     // exact ILP only
)

func (e PlaceEngine) String() string {
	if e == PlaceILP {
		return "ilp"
	}
	return "auto"
}

// PlaceOptions tunes the placement search. The zero value is the
// production default.
type PlaceOptions struct {
	// Engine picks the search strategy (default PlaceAuto).
	Engine PlaceEngine
	// Seed randomizes greedy tie-breaking; distinct seeds explore distinct
	// placements, which is what the verified-repair loop retries with.
	Seed uint64
}

const (
	// placeModelCap caps the exact stage's size — binary variables plus
	// constraints. Larger models skip the exact stage with a non-proven
	// Unplaceable rather than stall: the dense-tableau simplex behind
	// internal/ilp is only effective on small assignment models.
	placeModelCap = 4000
	// placeILPBudget bounds one exact solve (the shared ctx deadline still
	// applies and wins when earlier). Exhausting it yields a non-proven
	// Unplaceable, never a fabricated verdict.
	placeILPBudget = 10 * time.Second
)

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
// merely came up empty. The witness names the most constrained layer-0
// wire (a 2D design's logical row): LogicalRow had only Candidates
// compatible physical wires under the last layer-1 binding tried.
type Unplaceable struct {
	Stage      string // search stage that gave up: "shape", "dims", "precheck" or "ilp"
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

// Stack is a plane stack as the placement engine sees it: Widths[l]
// logical wires on wire layer l, Planes[p] the Widths[p] x Widths[p+1]
// device plane between layers p and p+1, and Maps[p] the physical plane
// it lands on. A nil map (or a nil Maps) is a fault-free plane of exactly
// the logical size.
type Stack struct {
	Widths []int
	Planes [][][]Entry
	Maps   []*defect.Map
}

// Stack returns d as the placement engine's K=2 stack on dm.
func (d *Design) Stack(dm *defect.Map) Stack {
	return Stack{Widths: []int{d.Rows, d.Cols}, Planes: [][][]Entry{d.Cells}, Maps: []*defect.Map{dm}}
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

// placer carries the immutable search inputs: the stack, the physical
// width of every layer and each plane's faults, in row-major order and
// grouped by physical row and column.
type placer struct {
	Stack
	phys         []int
	faults       [][]defect.Cell
	byRow, byCol []map[int][]defect.Cell
	nFaults      int
}

// dimString renders layer widths as "RxC" (or "W0xW1xW2" for K layers).
func dimString(widths []int) string {
	s := make([]string, len(widths))
	for i, w := range widths {
		s[i] = fmt.Sprint(w)
	}
	return strings.Join(s, "x")
}

// newPlacer validates the stack's shape — one map per plane, adjacent
// planes agreeing on the physical width of the layer they share — and
// that every layer fits its physical width. The planes themselves must
// match Widths (len(Planes) == K-1, plane p Widths[p] x Widths[p+1]).
func newPlacer(s Stack) (*placer, error) {
	k := len(s.Widths)
	if s.Maps == nil {
		s.Maps = make([]*defect.Map, k-1)
	}
	if len(s.Maps) != k-1 {
		return nil, &Unplaceable{Stage: "shape", LogicalRow: -1, Proven: true,
			Detail: fmt.Sprintf("%d defect maps for %d device planes", len(s.Maps), k-1)}
	}
	p := &placer{Stack: s, phys: make([]int, k), faults: make([][]defect.Cell, k-1),
		byRow: make([]map[int][]defect.Cell, k-1), byCol: make([]map[int][]defect.Cell, k-1)}
	for pl, dm := range s.Maps {
		rows, cols := s.Widths[pl], s.Widths[pl+1]
		if dm != nil {
			rows, cols = dm.Rows(), dm.Cols()
		}
		if pl > 0 && p.phys[pl] != rows {
			return nil, &Unplaceable{Stage: "shape", LogicalRow: -1, Proven: true,
				Detail: fmt.Sprintf("plane %d has %d columns but plane %d has %d rows: layer %d width disagrees",
					pl-1, p.phys[pl], pl, rows, pl)}
		}
		p.phys[pl], p.phys[pl+1] = rows, cols
		p.faults[pl] = dm.Cells()
		p.byRow[pl], p.byCol[pl] = map[int][]defect.Cell{}, map[int][]defect.Cell{}
		for _, fc := range p.faults[pl] {
			p.byRow[pl][fc.Row] = append(p.byRow[pl][fc.Row], fc)
			p.byCol[pl][fc.Col] = append(p.byCol[pl][fc.Col], fc)
		}
		p.nFaults += len(p.faults[pl])
	}
	for l, w := range s.Widths {
		if w > p.phys[l] {
			return nil, &Unplaceable{Stage: "dims", LogicalRow: -1, Proven: true,
				Detail: fmt.Sprintf("%s design exceeds the %s physical array", dimString(s.Widths), dimString(p.phys))}
		}
	}
	return p, nil
}

func identityPerm(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return perm
}

func (p *placer) identity() [][]int {
	perms := make([][]int, len(p.Widths))
	for l, w := range p.Widths {
		perms[l] = identityPerm(w)
	}
	return perms
}

// wireOK reports whether logical wire i of layer l may occupy physical
// wire w, given the inverse bindings (physical -> logical, -1 = unused)
// of the layer below and the layer above.
func (p *placer) wireOK(l, i, w int, below, above []int) bool {
	if l > 0 { // plane l-1: layer l is its column side
		for _, fc := range p.byCol[l-1][w] {
			if r := below[fc.Row]; r >= 0 && !compatCell(p.Planes[l-1][r][i], fc.Kind) {
				return false
			}
		}
	}
	if l < len(p.Widths)-1 { // plane l: layer l is its row side
		for _, fc := range p.byRow[l][w] {
			if c := above[fc.Col]; c >= 0 && !compatCell(p.Planes[l][i][c], fc.Kind) {
				return false
			}
		}
	}
	return true
}

// compatible reports whether the full placement satisfies every crossing.
func (p *placer) compatible(perms [][]int) bool {
	for pl, faults := range p.faults {
		if len(faults) == 0 {
			continue
		}
		invRow := inversePerm(perms[pl], p.phys[pl])
		invCol := inversePerm(perms[pl+1], p.phys[pl+1])
		for _, fc := range faults {
			r, c := invRow[fc.Row], invCol[fc.Col]
			if r >= 0 && c >= 0 && !compatCell(p.Planes[pl][r][c], fc.Kind) {
				return false
			}
		}
	}
	return true
}

// witness finds the most constrained layer-0 wire under the layer-1
// binding layer1 (identity when nil): the wire with the fewest compatible
// physical wires.
func (p *placer) witness(layer1 []int) (row, candidates int) {
	if layer1 == nil {
		layer1 = identityPerm(p.Widths[1])
	}
	above := inversePerm(layer1, p.phys[1])
	row, candidates = -1, p.phys[0]+1
	for r := 0; r < p.Widths[0]; r++ {
		n := 0
		for pr := 0; pr < p.phys[0]; pr++ {
			if p.wireOK(0, r, pr, nil, above) {
				n++
			}
		}
		if n < candidates {
			row, candidates = r, n
		}
	}
	return row, candidates
}

// provenInfeasible is a cheap sound infeasibility certificate for layer 0
// against plane 0, checked before any search runs. Relaxing layer-1
// injectivity, logical row r can only occupy physical row pr when every
// cell kind present in r has at least one compatible device on pr (a Lit
// needs a healthy column, an On a healthy or stuck-ON one, an Off a
// healthy or stuck-OFF one) — a necessary condition that reduces to
// per-physical-row fault counts. If even this relaxed row-to-wordline
// relation admits no perfect matching, no placement exists, and the
// unmatchable relation yields a witness. A nil return proves nothing; the
// search stages still decide.
func (p *placer) provenInfeasible() *Unplaceable {
	type profile struct{ hasLit, hasOn, hasOff bool }
	rows := make([]profile, p.Widths[0])
	for r, row := range p.Planes[0] {
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
	stuckOff := make([]int, p.phys[0])
	stuckOn := make([]int, p.phys[0])
	for _, fc := range p.faults[0] {
		if fc.Kind == defect.StuckOff {
			stuckOff[fc.Row]++
		} else {
			stuckOn[fc.Row]++
		}
	}
	possible := func(r, pr int) bool {
		healthy := p.phys[1] - stuckOff[pr] - stuckOn[pr]
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
	if _, ok := kuhn(p.Widths[0], p.phys[0], possible, identityPerm(p.phys[0])); ok {
		return nil
	}
	row, candidates := -1, p.phys[0]+1
	for r := 0; r < p.Widths[0]; r++ {
		n := 0
		for pr := 0; pr < p.phys[0]; pr++ {
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
		Detail:     fmt.Sprintf("no wordline assignment exists even ignoring column injectivity (%d faults on %dx%d)", len(p.faults[0]), p.phys[0], p.phys[1]),
		LogicalRow: row,
		Candidates: candidates,
		Proven:     true,
	}
}

// Place searches for a placement of the stack onto its defective planes
// and returns one physical-wire permutation per layer and the stage that
// found it. A fault-free stack returns the identity placement
// immediately. Otherwise a seeded greedy matching runs first, escalating
// to the exact ILP assignment formulation (under ctx's deadline) when
// greedy fails. When no placement exists — or none is found within the
// search budget — the returned error is an *Unplaceable carrying a
// witness; a placement is only ever returned after re-checking every
// defective crossing, so a buggy search can not hand back an incompatible
// binding silently.
func (s Stack) Place(ctx context.Context, opts PlaceOptions) ([][]int, string, error) {
	if err := ctx.Err(); err != nil {
		return nil, "", err
	}
	p, err := newPlacer(s)
	if err != nil {
		return nil, "", err
	}
	if p.nFaults == 0 {
		// No faults: every binding computes the same design, so identity
		// is canonical regardless of the requested engine.
		return p.finish(p.identity(), "identity")
	}
	// The identity shortcut yields to an explicitly forced exact engine:
	// callers (core's repair loop) force PlaceILP to explore beyond a
	// placement that failed downstream verification, and short-circuiting
	// every such retry back to the same identity binding would defeat it.
	if opts.Engine != PlaceILP && p.compatible(p.identity()) {
		return p.finish(p.identity(), "identity")
	}
	if up := p.provenInfeasible(); up != nil {
		return nil, "", up
	}
	var layer1 []int
	if opts.Engine != PlaceILP {
		perms, last, err := p.greedy(ctx, opts.Seed, false)
		if err != nil {
			return nil, "", err
		}
		if perms != nil {
			return p.finish(perms, "greedy")
		}
		layer1 = last
	}
	perms, err := p.ilp(ctx, layer1)
	if err != nil {
		return nil, "", err
	}
	return p.finish(perms, "ilp")
}

// PlaceContext places the 2D design d onto the defective array dm (nil:
// a fault-free array of exactly d's size); see Stack.Place.
func PlaceContext(ctx context.Context, d *Design, dm *defect.Map, opts PlaceOptions) (*Placement, error) {
	perms, engine, err := d.Stack(dm).Place(ctx, opts)
	if err != nil {
		return nil, err
	}
	return &Placement{RowPerm: perms[0], ColPerm: perms[1], Engine: engine}, nil
}

// finish re-validates the placement against every defective crossing —
// the postcondition gate between the search stages and the caller.
func (p *placer) finish(perms [][]int, engine string) ([][]int, string, error) {
	for l, perm := range perms {
		if err := checkInjective(perm, p.phys[l], l); err != nil {
			return nil, "", err
		}
	}
	if !p.compatible(perms) {
		return nil, "", invariant.Violationf("xbar.place-compatible",
			"%s placement binds an incompatible crossing onto a stuck device", engine)
	}
	return perms, engine, nil
}

// greedy runs the alternating matching sweeps: each sweep matches every
// layer in turn, bottom-up, against both neighbouring planes. It returns
// the placement on success; on failure it returns the last layer-1
// binding tried, for witness computation. With shuffleAll, even sweep 0
// uses randomized tie-breaking — candidate enumeration wants seed
// diversity, whereas single-placement search wants sweep 0 near-identity.
func (p *placer) greedy(ctx context.Context, seed uint64, shuffleAll bool) ([][]int, []int, error) {
	rng := seed*6364136223846793005 + 1442695040888963407
	next := func(bound int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(bound))
	}
	order := func(n int, shuffle bool) []int {
		o := identityPerm(n)
		if shuffle {
			for i := n - 1; i > 0; i-- {
				j := next(i + 1)
				o[i], o[j] = o[j], o[i]
			}
		}
		return o
	}

	k := len(p.Widths)
	perms := p.identity()
	for round := 0; round < 4*(k-1); round++ {
		if err := ctx.Err(); err != nil {
			return nil, perms[1], err
		}
		shuffle := shuffleAll || round > 0 // round 0 prefers near-identity bindings
		matched := true
		for l := 0; l < k && matched; l++ {
			var below, above []int
			if l > 0 {
				below = inversePerm(perms[l-1], p.phys[l-1])
			}
			if l < k-1 {
				above = inversePerm(perms[l+1], p.phys[l+1])
			}
			var perm []int
			perm, matched = kuhn(p.Widths[l], p.phys[l], func(i, w int) bool {
				return p.wireOK(l, i, w, below, above)
			}, order(p.phys[l], shuffle))
			if matched {
				perms[l] = perm
			}
		}
		if matched {
			if p.compatible(perms) {
				return perms, perms[1], nil
			}
			continue
		}
		// Re-randomize every layer above layer 0 before the next sweep.
		for l := 1; l < k; l++ {
			perms[l] = order(p.phys[l], true)[:p.Widths[l]]
		}
	}
	return nil, perms[1], nil
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

// ilp escalates to the exact 0-1 assignment formulation: one binary
// x[l,i,w] per (layer, logical wire, physical wire), one-physical-wire-
// per-logical-wire assignment constraints, and a conflict constraint
// x[p,r,prow] + x[p+1,c,pcol] <= 1 for every (logical cell, stuck device)
// pair of plane p the compatibility table forbids. The objective prefers
// near-identity placements (minimal wire displacement), which keeps the
// result deterministic and physically local. Infeasibility here is a
// proof: no placement exists. layer1 is the greedy stage's last layer-1
// binding (nil when the ILP runs alone), for the witness.
func (p *placer) ilp(ctx context.Context, layer1 []int) ([][]int, error) {
	fail := func(proven bool, format string, args ...any) error {
		row, cand := p.witness(layer1)
		return &Unplaceable{Stage: "ilp", Detail: fmt.Sprintf(format, args...), LogicalRow: row, Candidates: cand, Proven: proven}
	}
	k := len(p.Widths)
	size := 0
	for l, w := range p.Widths {
		size += w*p.phys[l] + w + p.phys[l]
	}
	for pl, faults := range p.faults {
		for _, fc := range faults {
			for _, row := range p.Planes[pl] {
				for _, e := range row {
					if !compatCell(e, fc.Kind) {
						size++
					}
				}
			}
		}
	}
	if size > placeModelCap {
		return nil, fail(false, "greedy search failed and the exact model would need %d variables+constraints (cap %d)", size, placeModelCap)
	}

	mod := ilp.NewModel("place")
	first := make([]int, k) // first variable of each layer's block
	xVar := func(l, i, w int) int { return first[l] + i*p.phys[l] + w }
	abs := func(v int) float64 {
		if v < 0 {
			return float64(-v)
		}
		return float64(v)
	}
	for l, width := range p.Widths {
		first[l] = mod.NumVars()
		for i := 0; i < width; i++ {
			for w := 0; w < p.phys[l]; w++ {
				mod.AddVar(fmt.Sprintf("x_%d_%d_%d", l, i, w), 0, 1, ilp.Binary, abs(i-w))
			}
		}
	}
	for l, width := range p.Widths {
		for i := 0; i < width; i++ {
			terms := make([]ilp.Term, p.phys[l])
			for w := range terms {
				terms[w] = ilp.Term{Var: xVar(l, i, w), Coeff: 1}
			}
			mod.AddConstr(fmt.Sprintf("wire_%d_%d", l, i), terms, ilp.EQ, 1)
		}
		for w := 0; w < p.phys[l]; w++ {
			terms := make([]ilp.Term, width)
			for i := range terms {
				terms[i] = ilp.Term{Var: xVar(l, i, w), Coeff: 1}
			}
			mod.AddConstr(fmt.Sprintf("phys_%d_%d", l, w), terms, ilp.LE, 1)
		}
	}
	for pl, faults := range p.faults {
		for _, fc := range faults {
			for r, row := range p.Planes[pl] {
				for c, e := range row {
					if compatCell(e, fc.Kind) {
						continue
					}
					mod.AddConstr(
						fmt.Sprintf("conflict_%d_%d_%d_%d_%d", pl, r, fc.Row, c, fc.Col),
						[]ilp.Term{{Var: xVar(pl, r, fc.Row), Coeff: 1}, {Var: xVar(pl+1, c, fc.Col), Coeff: 1}},
						ilp.LE, 1)
				}
			}
		}
	}

	sol, err := ilp.SolveContext(ctx, mod, ilp.Options{
		TimeLimit: placeILPBudget, Workers: ilp.DefaultWorkers(),
	})
	if err != nil {
		return nil, fmt.Errorf("xbar: placement ILP: %w", err)
	}
	switch sol.Status {
	case ilp.StatusOptimal, ilp.StatusFeasible:
		perms := make([][]int, k)
		for l, width := range p.Widths {
			perms[l] = make([]int, width)
			for i := range perms[l] {
				perms[l][i] = -1
				for w := 0; w < p.phys[l]; w++ {
					if sol.X[xVar(l, i, w)] > 0.5 {
						perms[l][i] = w
						break
					}
				}
			}
		}
		return perms, nil
	case ilp.StatusInfeasible:
		return nil, fail(true, "exact assignment model is infeasible (%d faults on %s)", p.nFaults, dimString(p.phys))
	default:
		// The search budget ran out before a placement or an infeasibility
		// proof was found. A cancelled/expired context surfaces as such;
		// otherwise this is exactly what a non-proven Unplaceable means —
		// the search came up empty, with no claim about existence.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("xbar: placement search: %w", err)
		}
		return nil, fail(false, "exact solve stopped %s within its %v budget", sol.Status, placeILPBudget)
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
	p, err := newPlacer(d.Stack(dm))
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []*Placement
	add := func(perms [][]int, engine string) error {
		key := fmt.Sprint(perms)
		if seen[key] {
			return nil
		}
		if _, _, err := p.finish(perms, engine); err != nil {
			return err
		}
		seen[key] = true
		out = append(out, &Placement{RowPerm: perms[0], ColPerm: perms[1], Engine: engine})
		return nil
	}
	if id := p.identity(); p.compatible(id) {
		if err := add(id, "identity"); err != nil {
			return nil, err
		}
	}
	if p.nFaults == 0 {
		// No faults: every binding is electrically identical, so one
		// canonical candidate is the complete answer.
		return out, nil
	}
	if len(out) == 0 {
		if up := p.provenInfeasible(); up != nil {
			return nil, up
		}
	}
	for i := 0; i < 4*max && len(out) < max; i++ {
		if err := ctx.Err(); err != nil {
			if len(out) > 0 {
				return out, nil
			}
			return nil, err
		}
		perms, _, err := p.greedy(ctx, opts.Seed+uint64(i)*0x9e3779b97f4a7c15, true)
		if err != nil {
			if len(out) > 0 {
				return out, nil
			}
			return nil, err
		}
		if perms != nil {
			if err := add(perms, "greedy"); err != nil {
				return nil, err
			}
		}
	}
	if len(out) == 0 {
		// Greedy enumeration found nothing at all; the exact stage settles
		// existence the same way PlaceContext would.
		perms, err := p.ilp(ctx, nil)
		if err != nil {
			return nil, err
		}
		if err := add(perms, "ilp"); err != nil {
			return nil, err
		}
	}
	return out, nil
}
