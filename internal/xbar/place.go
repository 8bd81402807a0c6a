package xbar

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
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
// physical plane described by its own defect.Map: a Design is exactly
// such a stack (a 2D crossbar the K=2 one). A placement binds
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
// A Placer is built once per request. It yields a stream of distinct
// compatible placements (see Placer.Next): identity when compatible, then,
// behind a sound Hall precheck, a seeded greedy alternating bipartite
// matching under a fixed sequence of seeds (each layer matched against
// both of its neighbouring planes given the neighbours' current bindings,
// 4·(K-1) shuffled sweeps per seed), and finally — at most once, when the
// caller still holds no usable placement — an exact 0-1 ILP assignment
// formulation solved by internal/ilp under the shared deadline discipline.
// Every conflict is pairwise between two adjacent layers, so the ILP is
// the 2D assignment model with one block of variables per layer. A
// proven-infeasible ILP yields an *Unplaceable error with Proven set and a
// witness naming the most constrained layer-0 wire (a 2D design's logical
// row).

const (
	// streamSeeds is how many greedy searches the placement stream draws,
	// each under its own seed.
	streamSeeds = 16
	// seedStride spaces the greedy seeds: a splitmix64-style odd constant
	// decorrelates them while keeping the stream a pure function of the
	// request's seed.
	seedStride = 0x9e3779b97f4a7c15
	// stepDone is the Placer's step once its stream has ended.
	stepDone = streamSeeds + 2
	// placeModelCap caps the exact stage's size — binary variables plus
	// constraints. Larger models skip the exact stage with a non-proven
	// Unplaceable rather than stall. The per-node LP (sparse revised and
	// dual simplex) is not the limit: the pairwise conflict rows have a
	// weak relaxation (x = 1/2 satisfies every one), so branch and bound
	// prunes little, and past a few thousand rows and columns its node
	// count outgrows placeILPBudget.
	placeModelCap = 4000
	// placeILPBudget bounds one exact solve: its context times out after
	// it, or at the caller's deadline when that is earlier. Exhausting it
	// yields a non-proven Unplaceable, never a fabricated verdict.
	placeILPBudget = 10 * time.Second
)

// Placement binds each logical wire of each layer of a design to a
// physical wire of the defective array it was placed onto.
type Placement struct {
	// Perms[l][i] is the physical wire carrying logical wire i of layer l
	// (at K=2, Perms[0] binds the rows and Perms[1] the columns); each
	// Perms[l] is injective into the layer's physical width.
	Perms [][]int
	// Engine records which search stage produced the placement:
	// "identity", "greedy" or "ilp".
	Engine string
}

// Unplaceable reports that no placement of the design onto the defective
// array was found. Proven distinguishes a certificate of infeasibility
// (the exact ILP stage exhausted the search space) from a search that
// merely came up empty. The witness names the most constrained layer-0
// wire (a 2D design's logical row): LogicalRow has only Candidates
// compatible physical wires under the identity layer-1 binding.
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
	Planes []Plane
	Maps   []*defect.Map
}

// Stack returns d as the placement engine's plane stack on maps (one map
// per device plane; nil for a fault-free array of d's exact size).
func (d *Design) Stack(maps []*defect.Map) Stack {
	return Stack{Widths: d.Widths, Planes: d.Planes, Maps: maps}
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

// Placer is one placement search over a stack, built once per request:
// the stack, the physical width of every layer and each plane's faults,
// in row-major order and grouped by physical row and column, the stream's
// position (see Next) and the greedy stage's scratch. cols[p] is plane p
// transposed (its columns as rows), built on first use, so a Placer
// serves one goroutine.
type Placer struct {
	Stack
	phys    []int
	faults  [][]defect.Cell // [plane], row-major
	byCol   [][]defect.Cell // [plane], column-major
	rowAt   [][]int         // [plane][physical row]: first fault of the row in faults
	colAt   [][]int         // [plane][physical column]: first fault of the column in byCol
	nFaults int
	cols    []Plane

	seed uint64
	step int             // next stream step: 0 identity, 1..streamSeeds greedy, then exact
	seen map[string]bool // bindings the stream has yielded

	m     matcher
	inv   [][]int // [layer] physical -> logical scratch (-1 = unused)
	perms [][]int // greedy's binding scratch
	order []int   // search order scratch
	kept  []int   // restrict's scratch
}

// dimString renders layer widths as "RxC" (or "W0xW1xW2" for K layers).
func dimString(widths []int) string {
	s := make([]string, len(widths))
	for i, w := range widths {
		s[i] = fmt.Sprint(w)
	}
	return strings.Join(s, "x")
}

// phys validates the stack's shape — one map per plane, adjacent planes
// agreeing on the physical width of the layer they share — and that every
// layer fits its physical width, and returns those widths (a plane without
// a map is a fault-free array of its own size). The planes themselves must
// match Widths (len(Planes) == K-1, plane p Widths[p] x Widths[p+1]).
func (s Stack) phys() ([]int, error) {
	k := len(s.Widths)
	if s.Maps != nil && len(s.Maps) != k-1 {
		return nil, &Unplaceable{Stage: "shape", LogicalRow: -1, Proven: true,
			Detail: fmt.Sprintf("%d defect maps for %d device planes", len(s.Maps), k-1)}
	}
	phys := make([]int, k)
	for pl := 0; pl < k-1; pl++ {
		rows, cols := s.Widths[pl], s.Widths[pl+1]
		if s.Maps != nil && s.Maps[pl] != nil {
			rows, cols = s.Maps[pl].Rows(), s.Maps[pl].Cols()
		}
		if pl > 0 && phys[pl] != rows {
			return nil, &Unplaceable{Stage: "shape", LogicalRow: -1, Proven: true,
				Detail: fmt.Sprintf("plane %d has %d columns but plane %d has %d rows: layer %d width disagrees",
					pl-1, phys[pl], pl, rows, pl)}
		}
		phys[pl], phys[pl+1] = rows, cols
	}
	for l, w := range s.Widths {
		if w > phys[l] {
			return nil, &Unplaceable{Stage: "dims", LogicalRow: -1, Proven: true,
				Detail: fmt.Sprintf("%s design exceeds the %s physical array", dimString(s.Widths), dimString(phys))}
		}
	}
	return phys, nil
}

// Bind checks a placement of the stack — perms, one permutation per
// layer, identity when nil — against the physical stack its maps
// describe, and returns the physical width of every layer and the
// checked binding.
func (s Stack) Bind(perms [][]int) ([]int, [][]int, error) {
	phys, err := s.phys()
	if err != nil {
		return nil, nil, err
	}
	if perms == nil {
		return phys, identity(s.Widths), nil
	}
	if len(perms) != len(s.Widths) {
		return nil, nil, fmt.Errorf("xbar: placement has %d layer permutations for %d layers", len(perms), len(s.Widths))
	}
	for l, perm := range perms {
		if len(perm) != s.Widths[l] {
			return nil, nil, fmt.Errorf("xbar: layer %d placement maps %d wires, design has %d", l, len(perm), s.Widths[l])
		}
		if err := checkInjective(perm, phys[l], l); err != nil {
			return nil, nil, err
		}
	}
	return phys, perms, nil
}

// NewPlacer validates the stack (see phys) and groups each plane's faults
// for the search. seed seeds the stream's greedy stage.
func NewPlacer(s Stack, seed uint64) (*Placer, error) {
	phys, err := s.phys()
	if err != nil {
		return nil, err
	}
	k := len(s.Widths)
	if s.Maps == nil {
		s.Maps = make([]*defect.Map, k-1)
	}
	p := &Placer{Stack: s, phys: phys, seed: seed, seen: map[string]bool{}, faults: make([][]defect.Cell, k-1),
		byCol: make([][]defect.Cell, k-1), rowAt: make([][]int, k-1), colAt: make([][]int, k-1)}
	for pl, dm := range s.Maps {
		rows, cols := phys[pl], phys[pl+1]
		faults := dm.Cells()
		p.faults[pl] = faults
		// Group by row and, by a stable counting sort, by column.
		p.rowAt[pl], p.colAt[pl] = make([]int, rows+1), make([]int, cols+1)
		for _, fc := range faults {
			p.rowAt[pl][fc.Row+1]++
			p.colAt[pl][fc.Col+1]++
		}
		for r := 0; r < rows; r++ {
			p.rowAt[pl][r+1] += p.rowAt[pl][r]
		}
		for c := 0; c < cols; c++ {
			p.colAt[pl][c+1] += p.colAt[pl][c]
		}
		byCol, next := make([]defect.Cell, len(faults)), slices.Clone(p.colAt[pl][:cols])
		for _, fc := range faults {
			byCol[next[fc.Col]] = fc
			next[fc.Col]++
		}
		p.byCol[pl] = byCol
		p.nFaults += len(faults)
	}
	p.inv = make([][]int, k)
	for l, w := range p.phys {
		p.inv[l] = make([]int, w)
	}
	return p, nil
}

// rowFaults returns the faults on physical row w of plane pl.
func (p *Placer) rowFaults(pl, w int) []defect.Cell {
	return p.faults[pl][p.rowAt[pl][w]:p.rowAt[pl][w+1]]
}

// colFaults returns the faults on physical column w of plane pl.
func (p *Placer) colFaults(pl, w int) []defect.Cell {
	return p.byCol[pl][p.colAt[pl][w]:p.colAt[pl][w+1]]
}

// colPlane returns plane pl transposed, building every transpose on first
// use.
func (p *Placer) colPlane(pl int) *Plane {
	if p.cols == nil {
		p.cols = make([]Plane, len(p.Planes))
		for q := range p.Planes {
			p.cols[q] = p.Planes[q].transpose()
		}
	}
	return &p.cols[pl]
}

// invert fills inv with perm's inverse binding (physical -> logical,
// -1 where unused) and returns it.
func invert(inv, perm []int) []int {
	fill(inv, -1)
	for logical, physical := range perm {
		inv[physical] = logical
	}
	return inv
}

func identityPerm(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return perm
}

// identity binds every layer's wires to the same-numbered physical ones.
func identity(widths []int) [][]int {
	perms := make([][]int, len(widths))
	for l, w := range widths {
		perms[l] = identityPerm(w)
	}
	return perms
}

// compile builds layer l's compatibility relation into p.m: bit i of row
// w is set when logical wire i may occupy physical wire w, given the
// inverse bindings (physical -> logical, -1 = unused) of the layer below
// and the layer above. Every fault of w whose partner wire is bound
// narrows w's row: a stuck-OFF one clears the logical wires holding a
// device on that partner, a stuck-ON one keeps only those holding an On
// device there. The cost is O(phys·⌈n/64⌉ + Σ faults·degree), plus
// ⌈n/64⌉ per stuck-ON fault, for n logical wires.
func (p *Placer) compile(l int, below, above []int) {
	m := &p.m
	m.reset(p.Widths[l], p.phys[l])
	for w := 0; w < p.phys[l]; w++ {
		row := m.row(w)
		if l > 0 { // plane l-1: layer l is its column side
			for _, fc := range p.colFaults(l-1, w) {
				if r := below[fc.Row]; r >= 0 {
					cs, es := p.Planes[l-1].Row(r)
					p.restrict(row, cs, es, fc.Kind)
				}
			}
		}
		if l < len(p.Widths)-1 { // plane l: layer l is its row side
			for _, fc := range p.rowFaults(l, w) {
				if c := above[fc.Col]; c >= 0 {
					rs, es := p.colPlane(l).Row(c)
					p.restrict(row, rs, es, fc.Kind)
				}
			}
		}
	}
}

// restrict narrows a relation row to the logical wires whose cell against
// a partner wire may occupy a device stuck in state k; idx and es list the
// partner's devices (ascending logical wires and their entries), every
// other crossing being Off.
func (p *Placer) restrict(row []uint64, idx []int, es []Entry, k defect.Kind) {
	switch k {
	case defect.StuckOff:
		for j, i := range idx {
			if !compatCell(es[j], k) {
				row[i>>6] &^= 1 << (i & 63)
			}
		}
	case defect.StuckOn:
		kept := p.kept[:0]
		for j, i := range idx {
			if compatCell(es[j], k) && row[i>>6]>>(i&63)&1 == 1 {
				kept = append(kept, i)
			}
		}
		clear(row)
		for _, i := range kept {
			row[i>>6] |= 1 << (i & 63)
		}
		p.kept = kept
	}
}

// compatible reports whether the full placement satisfies every crossing.
func (p *Placer) compatible(perms [][]int) bool {
	for pl, faults := range p.faults {
		if len(faults) == 0 {
			continue
		}
		invRow, invCol := invert(p.inv[pl], perms[pl]), invert(p.inv[pl+1], perms[pl+1])
		for _, fc := range faults {
			r, c := invRow[fc.Row], invCol[fc.Col]
			if r >= 0 && c >= 0 && !compatCell(p.Planes[pl].At(r, c), fc.Kind) {
				return false
			}
		}
	}
	return true
}

// witness finds the most constrained layer-0 wire under the identity
// layer-1 binding: the wire with the fewest compatible physical wires,
// counted off layer 0's compiled relation.
func (p *Placer) witness() (row, candidates int) {
	p.compile(0, nil, invert(p.inv[1], identityPerm(p.Widths[1])))
	count := make([]int, p.Widths[0])
	for w := 0; w < p.phys[0]; w++ {
		for k, word := range p.m.row(w) {
			for ; word != 0; word &= word - 1 {
				count[k*64+bits.TrailingZeros64(word)]++
			}
		}
	}
	row, candidates = -1, p.phys[0]+1
	for r, n := range count {
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
// relation admits no matching of every logical row, no placement exists,
// and the most constrained row is the witness. A nil return proves
// nothing; the search stages still decide.
//
// The relation depends on a logical row only through its profile, the
// set of cell kinds it holds (at most 8 classes), so Hall's theorem
// decides it without a matching search: every logical row is matched iff
// each union of classes has at most as many rows as there are physical
// rows admitting some class of the union. That is 2⁸ unions over at most
// 2⁸ physical-row masks, after one pass over the plane and the faults.
func (p *Placer) provenInfeasible() error {
	class, fits := p.relaxedRows()
	var need [8]int
	for _, c := range class {
		need[c]++
	}
	var avail [256]int // physical rows by the mask of classes they admit
	var cands [8]int   // physical rows admitting each class
	for pr := 0; pr < p.phys[0]; pr++ {
		m := 0
		for c := range need {
			if fits(uint8(c), pr) {
				m |= 1 << c
				cands[c]++
			}
		}
		avail[m]++
	}
	if hallMatchable(&need, &avail) {
		return nil
	}
	row := 0
	for r, c := range class {
		if cands[c] < cands[class[row]] {
			row = r
		}
	}
	return &Unplaceable{
		Stage:      "precheck",
		Detail:     fmt.Sprintf("no wordline assignment exists even ignoring column injectivity (%d faults on %dx%d)", len(p.faults[0]), p.phys[0], p.phys[1]),
		LogicalRow: row,
		Candidates: cands[class[row]],
		Proven:     true,
	}
}

// relaxedRows returns the profile class of every logical row of plane 0
// (bit 0: holds a Lit, bit 1: an On, bit 2: an Off) and the relaxed
// relation of provenInfeasible: whether a row of class c fits physical
// row pr.
func (p *Placer) relaxedRows() ([]uint8, func(c uint8, pr int) bool) {
	class := make([]uint8, p.Widths[0])
	plane := &p.Planes[0]
	for r := range class {
		_, es := plane.Row(r)
		for _, e := range es {
			switch e.Kind {
			case Lit:
				class[r] |= 1
			case On:
				class[r] |= 2
			default:
				class[r] |= 4
			}
		}
		if len(es) < plane.Cols() {
			class[r] |= 4 // an Off crossing
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
	return class, func(c uint8, pr int) bool {
		healthy := p.phys[1]-stuckOff[pr]-stuckOn[pr] > 0
		return (c&1 == 0 || healthy) && (c&2 == 0 || healthy || stuckOn[pr] > 0) &&
			(c&4 == 0 || healthy || stuckOff[pr] > 0)
	}
}

// hallMatchable reports whether every left vertex can be matched when
// need[c] left vertices share the neighbourhood of class c and avail[m]
// right vertices are adjacent to exactly the classes in mask m. By Hall's
// theorem it suffices to check, for every union t of classes, that the
// union's vertices do not outnumber the right vertices adjacent to it.
func hallMatchable(need *[8]int, avail *[256]int) bool {
	for t := 1; t < 256; t++ {
		demand, supply := 0, 0
		for c, k := range need {
			if t>>c&1 == 1 {
				demand += k
			}
		}
		for m, k := range avail {
			if m&t != 0 {
				supply += k
			}
		}
		if demand > supply {
			return false
		}
	}
	return true
}

// Next returns the stream's next placement of the stack onto its
// defective planes. The stream yields distinct bindings in a fixed order:
//
//  1. identity, when it is compatible (otherwise the Hall precheck,
//     provenInfeasible, runs here, once);
//  2. greedy searches under seeds seed + i·seedStride, i < streamSeeds;
//  3. once, and only when the call sets exact: the exact ILP, which
//     settles existence.
//
// Every yielded placement has passed finish, so a buggy search can not
// hand back an incompatible binding silently. Next returns nil, nil once
// the stream has ended. A refusal — a proven precheck, or an exact stage
// that found no placement — is an *Unplaceable carrying a witness, and
// ends the stream like a context error.
func (p *Placer) Next(ctx context.Context, exact bool) (*Placement, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var perms [][]int
		var err error
		engine := "greedy"
		switch step := p.step; {
		case step == 0:
			p.step++
			if id := identity(p.Widths); p.compatible(id) {
				perms, engine = id, "identity"
			} else if err = p.provenInfeasible(); err != nil {
				p.step = stepDone
			}
		case step <= streamSeeds:
			p.step++
			perms, err = p.greedy(ctx, p.seed+uint64(step-1)*seedStride)
		case step == streamSeeds+1 && exact:
			p.step++
			perms, err = p.ilp(ctx)
			engine = "ilp"
		default:
			p.step = stepDone
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		if perms == nil {
			continue
		}
		key := fmt.Sprint(perms)
		if p.seen[key] {
			continue
		}
		if err := p.finish(perms, engine); err != nil {
			return nil, err
		}
		p.seen[key] = true
		return &Placement{Perms: perms, Engine: engine}, nil
	}
}

// finish re-validates the placement against every defective crossing —
// the postcondition gate between the search stages and the caller.
func (p *Placer) finish(perms [][]int, engine string) error {
	for l, perm := range perms {
		if err := checkInjective(perm, p.phys[l], l); err != nil {
			return err
		}
	}
	if !p.compatible(perms) {
		return invariant.Violationf("xbar.place-compatible",
			"%s placement binds an incompatible crossing onto a stuck device", engine)
	}
	return nil
}

// greedy runs the alternating matching sweeps under one seed: each sweep
// matches every layer in turn, bottom-up, against both neighbouring
// planes, compiling the layer's relation once and running kuhn over it
// with the physical wires in a seeded shuffled order. The first sweep
// starts from the identity binding. It returns the placement, or nil when
// every sweep failed.
func (p *Placer) greedy(ctx context.Context, seed uint64) ([][]int, error) {
	rng := seed*6364136223846793005 + 1442695040888963407
	order := func(n int) []int {
		p.order = grow(p.order, n)
		o := p.order
		for i := range o {
			o[i] = i
		}
		for i := n - 1; i > 0; i-- {
			rng = rng*6364136223846793005 + 1442695040888963407
			j := int((rng >> 33) % uint64(i+1))
			o[i], o[j] = o[j], o[i]
		}
		return o
	}

	k := len(p.Widths)
	if p.perms == nil {
		p.perms = identity(p.Widths)
	}
	perms := p.perms
	for _, perm := range perms {
		for i := range perm {
			perm[i] = i
		}
	}
	for round := 0; round < 4*(k-1); round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		matched := true
		for l := 0; l < k && matched; l++ {
			var below, above []int
			if l > 0 {
				below = invert(p.inv[l-1], perms[l-1])
			}
			if l < k-1 {
				above = invert(p.inv[l+1], perms[l+1])
			}
			p.compile(l, below, above)
			perm, ok, err := p.m.kuhn(ctx, p.Widths[l], order(p.phys[l]))
			if err != nil {
				return nil, err
			}
			matched = ok
			if matched {
				copy(perms[l], perm)
			}
		}
		if matched {
			if p.compatible(perms) {
				out := make([][]int, k)
				for l := range perms {
					out[l] = slices.Clone(perms[l])
				}
				return out, nil
			}
			continue
		}
		// Re-randomize every layer above layer 0 before the next sweep.
		for l := 1; l < k; l++ {
			copy(perms[l], order(p.phys[l]))
		}
	}
	return nil, nil
}

// ilp escalates to the exact 0-1 assignment formulation: one binary
// x[l,i,w] per (layer, logical wire, physical wire), one-physical-wire-
// per-logical-wire assignment constraints, and a conflict constraint
// x[p,r,prow] + x[p+1,c,pcol] <= 1 for every (logical cell, stuck device)
// pair of plane p the compatibility table forbids. The objective prefers
// near-identity placements (minimal wire displacement), which keeps the
// result deterministic and physically local. Infeasibility here is a
// proof: no placement exists.
func (p *Placer) ilp(ctx context.Context) ([][]int, error) {
	fail := func(proven bool, format string, args ...any) error {
		row, cand := p.witness()
		return &Unplaceable{Stage: "ilp", Detail: fmt.Sprintf(format, args...), LogicalRow: row, Candidates: cand, Proven: proven}
	}
	k := len(p.Widths)
	if size := p.modelSize(); size > placeModelCap {
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
		plane := &p.Planes[pl]
		for _, fc := range faults {
			for r := 0; r < plane.Rows(); r++ {
				for c := 0; c < plane.Cols(); c++ {
					if compatCell(plane.At(r, c), fc.Kind) {
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

	ictx, cancel := context.WithTimeout(ctx, placeILPBudget)
	defer cancel()
	sol, err := ilp.SolveContext(ictx, mod, ilp.Options{})
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
		// proof was found. The caller's cancelled/expired ctx surfaces as
		// such; placeILPBudget running out on ictx alone is exactly what a
		// non-proven Unplaceable means — the search came up empty, with no
		// claim about existence.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("xbar: placement search: %w", err)
		}
		return nil, fail(false, "exact solve stopped %s within its %v budget", sol.Status, placeILPBudget)
	}
}

// modelSize is the exact stage's variable plus constraint count: one
// binary per (logical wire, physical wire) pair of a layer, one assignment
// row per logical wire, one capacity row per physical wire, and one
// conflict row per (logical cell, stuck device) pair the compatibility
// table forbids: a stuck-OFF device forbids every device, a stuck-ON one
// every crossing but the On devices. The cost is O(devices + faults).
func (p *Placer) modelSize() int {
	size := 0
	for l, w := range p.Widths {
		size += w*p.phys[l] + w + p.phys[l]
	}
	for pl, faults := range p.faults {
		if len(faults) == 0 {
			continue
		}
		plane := &p.Planes[pl]
		_, on := plane.Counts()
		for _, fc := range faults {
			switch fc.Kind {
			case defect.StuckOff:
				size += plane.Len()
			case defect.StuckOn:
				size += plane.Rows()*plane.Cols() - on
			}
		}
	}
	return size
}
