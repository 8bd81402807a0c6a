package xbar3d

import (
	"context"
	"fmt"

	"compact/internal/defect"
	"compact/internal/invariant"
	"compact/internal/xbar"
)

// Defect-aware layered placement
//
// A layered physical array carries one defect.Map per device plane (plane
// d's map is physWidth(d) x physWidth(d+1)). A Placement3D chooses which
// physical nanowire each logical wire of every layer occupies; physical
// wires left unused are floating spares, so their faults are harmless —
// the same semantics as the 2D placement in xbar.
//
// The search is a seeded greedy sequential matching: wire layers are
// placed bottom-up, layer l's assignment constrained by the plane-(l-1)
// faults against the already-fixed layer l-1, with randomized tie-breaking
// across rounds. There is no exact-ILP escalation for the layered case —
// the per-layer assignment polytopes are coupled through shared planes, so
// the 2D assignment formulation does not carry over; the repair loop in
// core retries with derived seeds instead, exactly like the 2D greedy
// stage.

// Placement3D binds each logical wire of each layer to a physical wire.
type Placement3D struct {
	// Perms[l][i] is the physical wire carrying logical wire i of layer l;
	// each Perms[l] is injective into the layer's physical width.
	Perms [][]int
	// Engine records the search stage: "identity" or "greedy".
	Engine string
}

// Unplaceable3D reports that no layered placement was found. Proven marks
// a certificate (dimension mismatch); a greedy exhaustion proves nothing.
type Unplaceable3D struct {
	Stage  string // "dims", "shape" or "greedy"
	Layer  int    // wire layer the search got stuck on (-1 when not layer-shaped)
	Detail string
	Proven bool
}

func (u *Unplaceable3D) Error() string {
	msg := fmt.Sprintf("xbar3d: design unplaceable (%s stage): %s", u.Stage, u.Detail)
	if u.Layer >= 0 {
		msg += fmt.Sprintf("; witness: wire layer %d", u.Layer)
	}
	if u.Proven {
		msg += " [proven infeasible]"
	}
	return msg
}

// compatCell3 is the 2D compatibility table: a stuck-OFF device only
// carries Off, a stuck-ON device only On, a healthy device anything.
func compatCell3(e xbar.Entry, k defect.Kind) bool {
	switch k {
	case defect.StuckOff:
		return e.Kind == xbar.Off
	case defect.StuckOn:
		return e.Kind == xbar.On
	}
	return true
}

// physWidths derives the per-layer physical wire counts from the plane
// maps and validates the stack's shape consistency: interior layer l is
// the column side of plane l-1 and the row side of plane l, so those two
// declared dimensions must agree.
func physWidths(d *Design3D, maps []*defect.Map) ([]int, error) {
	k := d.K()
	if maps == nil {
		return append([]int(nil), d.Widths...), nil
	}
	if len(maps) != k-1 {
		return nil, &Unplaceable3D{Stage: "shape", Layer: -1, Proven: true,
			Detail: fmt.Sprintf("%d defect maps for %d device planes", len(maps), k-1)}
	}
	phys := make([]int, k)
	for l := 0; l < k; l++ {
		switch {
		case l < k-1:
			phys[l] = maps[l].Rows()
			if l > 0 && maps[l-1].Cols() != phys[l] {
				return nil, &Unplaceable3D{Stage: "shape", Layer: l, Proven: true,
					Detail: fmt.Sprintf("plane %d is %dx%d but plane %d is %dx%d: layer %d width disagrees",
						l-1, maps[l-1].Rows(), maps[l-1].Cols(), l, maps[l].Rows(), maps[l].Cols(), l)}
			}
		default:
			phys[l] = maps[l-1].Cols()
		}
	}
	return phys, nil
}

// resolvePerms3 validates pl against d and maps, returning the effective
// per-layer permutations (identity when pl is nil).
func resolvePerms3(d *Design3D, maps []*defect.Map, pl *Placement3D) ([][]int, []int, error) {
	phys, err := physWidths(d, maps)
	if err != nil {
		return nil, nil, err
	}
	k := d.K()
	if pl == nil {
		perms := make([][]int, k)
		for l := 0; l < k; l++ {
			if phys[l] < d.Widths[l] {
				return nil, nil, fmt.Errorf("xbar3d: layer %d needs %d wires but the physical array has %d",
					l, d.Widths[l], phys[l])
			}
			perms[l] = make([]int, d.Widths[l])
			for i := range perms[l] {
				perms[l][i] = i
			}
		}
		return perms, phys, nil
	}
	if len(pl.Perms) != k {
		return nil, nil, fmt.Errorf("xbar3d: placement has %d layer permutations for %d layers", len(pl.Perms), k)
	}
	for l := 0; l < k; l++ {
		if len(pl.Perms[l]) != d.Widths[l] {
			return nil, nil, fmt.Errorf("xbar3d: layer %d placement maps %d wires, design has %d",
				l, len(pl.Perms[l]), d.Widths[l])
		}
		if err := checkInjective3(pl.Perms[l], phys[l], l); err != nil {
			return nil, nil, err
		}
	}
	return pl.Perms, phys, nil
}

func checkInjective3(perm []int, bound, layer int) error {
	seen := make(map[int]bool, len(perm))
	for i, p := range perm {
		if p < 0 || p >= bound {
			return fmt.Errorf("xbar3d: layer %d placement maps %d to %d, outside 0..%d", layer, i, p, bound-1)
		}
		if seen[p] {
			return fmt.Errorf("xbar3d: layer %d placement maps two wires to physical wire %d", layer, p)
		}
		seen[p] = true
	}
	return nil
}

// inversePerm3 maps physical wire -> logical wire (-1 where unused).
func inversePerm3(perm []int, bound int) []int {
	inv := make([]int, bound)
	for i := range inv {
		inv[i] = -1
	}
	for logical, physical := range perm {
		inv[physical] = logical
	}
	return inv
}

// UnderDefects3D returns the effective design the layered physical array
// computes: the logical design placed by pl (identity when nil) onto the
// planes described by maps, each crossing landing on a stuck device
// overridden by the stuck behavior. Faults on unused physical wires are
// ignored. The result is a deep copy.
func (d *Design3D) UnderDefects3D(maps []*defect.Map, pl *Placement3D) (*Design3D, error) {
	perms, phys, err := resolvePerms3(d, maps, pl)
	if err != nil {
		return nil, err
	}
	nd := d.Clone()
	if maps == nil {
		return nd, nil
	}
	for dl, dm := range maps {
		if dm.Len() == 0 {
			continue
		}
		invRow := inversePerm3(perms[dl], phys[dl])
		invCol := inversePerm3(perms[dl+1], phys[dl+1])
		for _, fc := range dm.Cells() {
			r, c := invRow[fc.Row], invCol[fc.Col]
			if r < 0 || c < 0 {
				continue // crossing on an unused (disconnected) physical wire
			}
			switch fc.Kind {
			case defect.StuckOn:
				nd.Cells[dl][r][c] = xbar.Entry{Kind: xbar.On}
			case defect.StuckOff:
				nd.Cells[dl][r][c] = xbar.Entry{Kind: xbar.Off}
			}
		}
	}
	return nd, nil
}

// compatible3 reports whether the full placement satisfies every defective
// crossing on every plane.
func compatible3(d *Design3D, maps []*defect.Map, perms [][]int, phys []int) bool {
	for dl, dm := range maps {
		if dm.Len() == 0 {
			continue
		}
		invRow := inversePerm3(perms[dl], phys[dl])
		invCol := inversePerm3(perms[dl+1], phys[dl+1])
		for _, fc := range dm.Cells() {
			r, c := invRow[fc.Row], invCol[fc.Col]
			if r >= 0 && c >= 0 && !compatCell3(d.Cells[dl][r][c], fc.Kind) {
				return false
			}
		}
	}
	return true
}

// Place3D searches for a layered placement of d onto the defective planes.
// Fault-free stacks return the identity placement immediately; otherwise
// seeded greedy rounds run the sequential per-layer matching. A returned
// placement always passes the full-compatibility postcondition; failure is
// a typed *Unplaceable3D.
func Place3D(ctx context.Context, d *Design3D, maps []*defect.Map, opts xbar.PlaceOptions) (*Placement3D, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := d.Wires().Err; err != nil {
		return nil, err
	}
	rounds := opts.Rounds
	if rounds <= 0 {
		rounds = 32
	}
	phys, err := physWidths(d, maps)
	if err != nil {
		return nil, err
	}
	k := d.K()
	for l := 0; l < k; l++ {
		if phys[l] < d.Widths[l] {
			return nil, &Unplaceable3D{Stage: "dims", Layer: l, Proven: true,
				Detail: fmt.Sprintf("layer %d needs %d wires but the physical array has %d", l, d.Widths[l], phys[l])}
		}
	}
	identity := func() [][]int {
		perms := make([][]int, k)
		for l := 0; l < k; l++ {
			perms[l] = make([]int, d.Widths[l])
			for i := range perms[l] {
				perms[l][i] = i
			}
		}
		return perms
	}
	totalFaults := 0
	for _, dm := range maps {
		totalFaults += dm.Len()
	}
	finish := func(perms [][]int, engine string) (*Placement3D, error) {
		for l := 0; l < k; l++ {
			if err := checkInjective3(perms[l], phys[l], l); err != nil {
				return nil, err
			}
		}
		if !compatible3(d, maps, perms, phys) {
			return nil, invariant.Violationf("xbar3d.place-compatible",
				"%s placement binds an incompatible crossing onto a stuck device", engine)
		}
		return &Placement3D{Perms: perms, Engine: engine}, nil
	}
	if totalFaults == 0 {
		return finish(identity(), "identity")
	}
	if perms := identity(); compatible3(d, maps, perms, phys) {
		return finish(perms, "identity")
	}

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
	// Per-plane faults grouped by physical column for the sequential pass.
	byCol := make([]map[int][]defect.Cell, k-1)
	for dl, dm := range maps {
		byCol[dl] = map[int][]defect.Cell{}
		for _, fc := range dm.Cells() {
			byCol[dl][fc.Col] = append(byCol[dl][fc.Col], fc)
		}
	}
	// Backtracking over matching multiplicity. Given a fixed layer l-1
	// binding, kuhn3 is exact: an incomplete matching at layer l proves no
	// perfect matching exists for that prefix, so retrying layer l is
	// useless — the search must backtrack and draw a *different* perfect
	// matching at an earlier layer (candidate-order shuffling steers kuhn3
	// toward a different one). Each matching at layer l only sees plane
	// l-1's faults — plane l's are settled when layer l+1 is matched — so
	// the choice among valid layer-l matchings is blind to the plane above;
	// backtracking is what recovers from a blind choice that strands the
	// next layer. The kuhn-call budget scales with opts.Rounds and bounds
	// the whole search.
	stuck := -1
	budget := rounds * 32
	perms := make([][]int, k)
	var search func(l int, shuffle bool) bool
	search = func(l int, shuffle bool) bool {
		if ctx.Err() != nil || budget <= 0 {
			return false
		}
		if l == k {
			return compatible3(d, maps, perms, phys)
		}
		if l == 0 {
			// No fixed plane below layer 0: any injective binding works for
			// the sequential pass; top-level rounds redraw it.
			perms[0] = order(phys[0], shuffle)[:d.Widths[0]]
			return search(1, shuffle)
		}
		tries := 1
		if shuffle {
			tries = 4
		}
		invPrev := inversePerm3(perms[l-1], phys[l-1])
		plane := d.Cells[l-1]
		faults := byCol[l-1]
		compat := func(i, p int) bool {
			for _, fc := range faults[p] {
				if r := invPrev[fc.Row]; r >= 0 && !compatCell3(plane[r][i], fc.Kind) {
					return false
				}
			}
			return true
		}
		for t := 0; t < tries && budget > 0; t++ {
			budget--
			perm, complete := kuhn3(d.Widths[l], phys[l], compat, order(phys[l], shuffle || t > 0))
			if !complete {
				if l > stuck {
					stuck = l
				}
				return false // proven: no matching under this prefix
			}
			perms[l] = perm
			if search(l+1, shuffle) {
				return true
			}
		}
		return false
	}
	for round := 0; round < rounds && budget > 0; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Round 0 prefers near-identity bindings.
		if search(0, round > 0) {
			return finish(perms, "greedy")
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return nil, &Unplaceable3D{Stage: "greedy", Layer: stuck,
		Detail: fmt.Sprintf("backtracking matching found no placement in %d rounds (%d faults on %d planes)",
			rounds, totalFaults, k-1)}
}

// kuhn3 computes a maximum bipartite matching of nLeft logical wires onto
// nRight physical wires via augmenting paths, trying candidates in the
// given order (a local copy of xbar's matcher).
func kuhn3(nLeft, nRight int, ok func(l, r int) bool, order []int) ([]int, bool) {
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
