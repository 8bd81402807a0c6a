// Package spice validates flow-based crossbar designs electrically,
// standing in for the SPICE simulations of the paper (Section VIII, using
// the memristor model of reference [33]). Every crosspoint of a fabricated
// crossbar holds a memristor; cells programmed '0' are in the high
// resistive state, not absent. The package builds the resistive network of
// a programmed crossbar — input wordline driven through a source
// resistance, every output wordline loaded by a sense resistor to ground —
// and solves the nodal equations through their bipartite structure: every
// device joins a wordline-side node to a bitline-side one, so the larger
// side is eliminated in closed form and the Schur complement of the
// smaller one is factored by Cholesky (nodal.go), one path for every size
// and every layer count.
//
// Beyond the nominal model, the package simulates placed designs on real
// arrays: per-device resistances (ResistanceMap, log-normal variation via
// SampleResistances) and the analog consequences of a defect map that the
// logical model ignores — a stuck-ON device on the crossing of a used line
// and an unused spare ties that spare into the network as a sneak-path
// bridge, even though the placement layer correctly treats it as logically
// harmless. Env carries this electrical context; MonteCarloContext runs
// seeded variation trials over it.
package spice

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"compact/internal/defect"
	"compact/internal/xbar"
)

// DeviceModel collects the electrical parameters of the crossbar.
type DeviceModel struct {
	ROn     float64 // low resistive state (ohms)
	ROff    float64 // high resistive state (ohms)
	RSense  float64 // sense resistor on each output wordline (ohms)
	RDriver float64 // source resistance of the Vin driver (ohms)
	Vin     float64 // drive voltage (volts)
}

// Default returns parameters in the range of the paper's memristor model:
// R_on 10 kΩ, R_off 10 MΩ, 1 kΩ sense resistors, 50 Ω driver, 1 V drive.
// The 10^3 on/off ratio is sufficient for small arrays; larger designs
// accumulate leakage through the many parallel off-state sneak paths and
// need HighContrast (see the validate example).
func Default() DeviceModel {
	return DeviceModel{ROn: 10e3, ROff: 10e6, RSense: 1e3, RDriver: 50, Vin: 1}
}

// HighContrast returns a device model with a 10^5 on/off ratio and a
// larger sense resistor, as demonstrated for HfO2-class devices — the
// regime where benchmark-scale flow-based designs remain electrically
// separable.
func HighContrast() DeviceModel {
	return DeviceModel{ROn: 10e3, ROff: 1e9, RSense: 10e3, RDriver: 50, Vin: 1}
}

// Validate checks the model parameters.
func (m DeviceModel) Validate() error {
	if m.ROn <= 0 || m.ROff <= 0 || m.RSense <= 0 || m.RDriver <= 0 {
		return errors.New("spice: resistances must be positive")
	}
	if m.ROff <= m.ROn {
		return errors.New("spice: ROff must exceed ROn")
	}
	return nil
}

// maxNodes caps the nodal system: the couplings, V and the Schur
// complement are dense, and 6000 nodes split evenly already take 216 MB
// per solving goroutine.
const maxNodes = 6000

// ErrTooLarge marks designs whose nodal system exceeds maxNodes, so
// service layers can map the condition to a typed wire error instead of
// pattern-matching message text.
var ErrTooLarge = errors.New("design exceeds the dense nodal solver limit")

// ErrLayered marks a K-layer stack (K >= 3) simulated with defect maps, a
// placement or a resistance map: the layered placement story (per-plane
// fault maps, spare-line bridges that can span planes) has a logical model
// in xbar.Stack.Place but no electrical one yet, and a margin number that
// silently ignored the faults it was asked about would be worse than a
// typed refusal. Service layers map it to a typed unsupported error.
var ErrLayered = errors.New("spice: K-layer stacks are simulated clean only: no electrical model for defect maps, placements or resistance maps")

// Env describes the electrical context of one simulation: the device
// model, optional per-device resistances, and the physical-array context
// (defect maps + placement) whose stuck-ON faults become analog effects.
// The zero Model is invalid; everything else defaults to "nominal devices
// on an array exactly the design's size". Only 2D designs take a physical
// context: a K-layer stack given Res, Defects or Placement is refused with
// ErrLayered.
type Env struct {
	// Model supplies the nominal device parameters and the drive/sense
	// configuration.
	Model DeviceModel
	// Res pins per-device resistances in physical coordinates (nil =
	// every device nominal). Its dimensions must match the physical array:
	// the defect map's when Defects is set, the design's otherwise.
	Res *ResistanceMap
	// Defects is the physical array context, one map per device plane
	// (a 2D design has one). Stuck devices override the conductance of the
	// cells placed on them, and stuck-ON devices on used×spare crossings
	// tie the spare line in as a sneak-path bridge. nil (or a nil map)
	// means the array is exactly the design with no faults.
	Defects []*defect.Map
	// Placement binds logical lines to physical ones (nil = identity).
	Placement *xbar.Placement
}

// network is a compiled simulation — everything that does not change
// between assignments or Monte Carlo trials: the node space and its two
// bipartite sides, the driven and sensed nodes, and the device planes that
// join the nodes, one per device plane of the design, over the design's
// wire numbering (xbar.Design.Wires). simulate is re-entrant: concurrent
// trials share one network, each with its own solver.
type network struct {
	model   DeviceModel
	n       int   // total nodes incl. bridge-tied spares
	input   int   // node driven through RDriver
	outputs []int // sensed node per design output
	loads   []int // nodes carrying a sense resistor: distinct outputs other than the input
	planes  []plane
	// The bipartite split (see nodal.go): small[w] says node w is on the
	// kept side, slot[w] is its index within its side, ns and nl are the
	// side sizes, and devW[d] is device d's coupling in the V layout.
	small  []bool
	slot   []int
	ns, nl int
	devW   []int
	// res pins per-plane device resistances (nil = every device nominal).
	res []*ResistanceMap
	// sample draws one Monte Carlo trial's per-plane resistance maps.
	sample func(v Variation, seed uint64) ([]*ResistanceMap, error)
}

// plane is one device plane: crossing (r, c) is a conductance between node
// rowBase+r and node colBase+c — every crossing, since an Off device still
// leaks. The plane is the design's own — referenced, never copied, so
// compiling costs no memory per device.
type plane struct {
	cells            xbar.Plane
	rowBase, colBase int
	rowPhys, colPhys []int  // logical line -> physical device line (nil = identity)
	override         []int8 // per cell, row-major: 0 none, +1 stuck-ON, -1 stuck-OFF
	bridges          []bridgeEdge
}

// bridgeEdge is one stuck-ON device tying a spare line into the array: a
// conductance of 1/R_on between two nodes of the extended system.
type bridgeEdge struct {
	a, b   int // extended node indices
	pr, pc int // physical device position (per-device resistance lookup)
}

func identityPerm(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return perm
}

// checkLinePerm verifies that perm maps logical lines injectively into
// 0..bound-1 physical ones.
func checkLinePerm(what string, perm []int, bound int) error {
	seen := make(map[int]bool, len(perm))
	for i, p := range perm {
		if p < 0 || p >= bound {
			return fmt.Errorf("spice: %s placement maps %d to %d, outside 0..%d", what, i, p, bound-1)
		}
		if seen[p] {
			return fmt.Errorf("spice: %s placement maps two lines to physical line %d", what, p)
		}
		seen[p] = true
	}
	return nil
}

// compile validates the model, the design (its compiled wire graph's Err
// covers the plane shapes, the wire references and corrupted cells) and
// the Env, and compiles one plane per device plane: plane p joins the
// wires of layer p (rows) to those of layer p+1 (columns). A 2D design's
// plane lands on its placed physical array, with the stuck overrides and
// bridge topology of Env.Defects; a K-layer stack is simulated clean.
func compile(d *xbar.Design, env Env) (*network, error) {
	if err := env.Model.Validate(); err != nil {
		return nil, err
	}
	w := d.Wires()
	if w.Err != nil {
		return nil, fmt.Errorf("spice: %w", w.Err)
	}
	nw := &network{model: env.Model, n: w.N, input: w.Input, outputs: w.Outputs}
	if d.K() > 2 {
		if env.Res != nil || env.Placement != nil || slices.ContainsFunc(env.Defects, func(m *defect.Map) bool { return m != nil }) {
			return nil, ErrLayered
		}
		base := 0
		for p, cells := range d.Planes {
			nw.planes = append(nw.planes, plane{cells: cells, rowBase: base, colBase: base + d.Widths[p]})
			base += d.Widths[p]
		}
		nw.sample = func(v Variation, seed uint64) ([]*ResistanceMap, error) {
			return samplePlaneRes(d, env.Model, v, seed)
		}
	} else if err := nw.place(d, env); err != nil {
		return nil, err
	}
	if nw.n > maxNodes {
		return nil, fmt.Errorf("spice: %d nanowire nodes exceed the %d-node cap: %w", nw.n, maxNodes, ErrTooLarge)
	}
	for _, w := range nw.outputs {
		if w != nw.input && !slices.Contains(nw.loads, w) {
			nw.loads = append(nw.loads, w)
		}
	}
	nw.sides()
	return nw, nil
}

// place compiles a 2D design's one plane onto its physical array: the
// placement's line maps, per-device resistances, and the stuck overrides
// and spare-line bridges of its defect map.
func (nw *network) place(d *xbar.Design, env Env) error {
	var dm *defect.Map
	if len(env.Defects) > 1 {
		return fmt.Errorf("spice: %d defect maps for a design with one device plane", len(env.Defects))
	} else if len(env.Defects) == 1 {
		dm = env.Defects[0]
	}
	physRows, physCols := d.Rows, d.Cols
	if dm != nil {
		physRows, physCols = dm.Rows(), dm.Cols()
	}
	pl := plane{cells: d.Planes[0], colBase: d.Rows}
	if p := env.Placement; p != nil {
		if len(p.Perms) != 2 || len(p.Perms[0]) != d.Rows || len(p.Perms[1]) != d.Cols {
			return fmt.Errorf("spice: placement does not bind the %dx%d design's rows and columns", d.Rows, d.Cols)
		}
		pl.rowPhys, pl.colPhys = p.Perms[0], p.Perms[1]
	} else {
		if physRows < d.Rows || physCols < d.Cols {
			return fmt.Errorf("spice: %dx%d design does not fit the %dx%d physical array",
				d.Rows, d.Cols, physRows, physCols)
		}
		pl.rowPhys, pl.colPhys = identityPerm(d.Rows), identityPerm(d.Cols)
	}
	if err := checkLinePerm("wordline", pl.rowPhys, physRows); err != nil {
		return err
	}
	if err := checkLinePerm("bitline", pl.colPhys, physCols); err != nil {
		return err
	}
	if env.Res != nil {
		if err := env.Res.Validate(); err != nil {
			return err
		}
		if env.Res.Rows != physRows || env.Res.Cols != physCols {
			return fmt.Errorf("spice: resistance map %dx%d does not match the %dx%d physical array",
				env.Res.Rows, env.Res.Cols, physRows, physCols)
		}
		nw.res = []*ResistanceMap{env.Res}
	}
	if dm.Len() > 0 {
		nw.n = pl.compileDefects(dm, d.Rows, d.Cols)
	}
	nw.planes = []plane{pl}
	nw.sample = func(v Variation, seed uint64) ([]*ResistanceMap, error) {
		m, err := SampleResistances(physRows, physCols, env.Model, v, seed)
		return []*ResistanceMap{m}, err
	}
	return nil
}

// samplePlaneRes draws one concrete stack: an independent log-normal
// resistance map per device plane, plane seeds derived from the trial seed
// through the splitmix64 stream so no two (trial, plane) pairs share a
// stream. Zero-extent planes get a nil entry but still consume a seed, so
// their presence never shifts another plane's draw.
func samplePlaneRes(d *xbar.Design, base DeviceModel, v Variation, trialSeed uint64) ([]*ResistanceMap, error) {
	res := make([]*ResistanceMap, len(d.Planes))
	state := trialSeed
	for p := range d.Planes {
		planeSeed := splitmix64(&state)
		rows, cols := d.Widths[p], d.Widths[p+1]
		if rows == 0 || cols == 0 {
			continue
		}
		m, err := SampleResistances(rows, cols, base, v, planeSeed)
		if err != nil {
			return nil, err
		}
		res[p] = m
	}
	return res, nil
}

// compileDefects records stuck-state overrides for cells placed on faulty
// devices and ties in spare lines reachable from the used array through
// chains of stuck-ON devices, returning the extended node count. Spare
// lines not so reachable stay floating (they carry no current and would
// make the system singular); stuck-OFF faults on spare crossings are
// ignored, as are the healthy off-state devices on spare crossings — their
// leakage onto a floating line is second-order next to a stuck-ON short
// (documented approximation, DESIGN §14).
func (pl *plane) compileDefects(dm *defect.Map, rows, cols int) int {
	physRows, physCols := dm.Rows(), dm.Cols()
	invRow := make([]int, physRows)
	invCol := make([]int, physCols)
	for i := range invRow {
		invRow[i] = -1
	}
	for i := range invCol {
		invCol[i] = -1
	}
	for r, pr := range pl.rowPhys {
		invRow[pr] = r
	}
	for c, pc := range pl.colPhys {
		invCol[pc] = c
	}

	type fault struct{ pr, pc int }
	var stuckOn []fault
	for _, fc := range dm.Cells() {
		r, c := invRow[fc.Row], invCol[fc.Col]
		if r >= 0 && c >= 0 {
			// Used×used crossing: the fabricated device pins the cell's
			// conductance regardless of what the design programs there.
			if pl.override == nil {
				pl.override = make([]int8, rows*cols)
			}
			if fc.Kind == defect.StuckOn {
				pl.override[r*cols+c] = 1
			} else {
				pl.override[r*cols+c] = -1
			}
			continue
		}
		if fc.Kind == defect.StuckOn {
			stuckOn = append(stuckOn, fault{fc.Row, fc.Col})
		}
	}
	if len(stuckOn) == 0 {
		return rows + cols
	}

	// Phase 1: BFS from the used lines over stuck-ON adjacency to find the
	// spare lines that are electrically tied in (possibly through chains of
	// spares bridged to each other).
	rowReach := make([]bool, physRows)
	colReach := make([]bool, physCols)
	for _, pr := range pl.rowPhys {
		rowReach[pr] = true
	}
	for _, pc := range pl.colPhys {
		colReach[pc] = true
	}
	for changed := true; changed; {
		changed = false
		for _, f := range stuckOn {
			if rowReach[f.pr] && !colReach[f.pc] {
				colReach[f.pc] = true
				changed = true
			}
			if colReach[f.pc] && !rowReach[f.pr] {
				rowReach[f.pr] = true
				changed = true
			}
		}
	}

	// Phase 2: assign extended node ids to the reached spares (deterministic
	// line order) and emit one bridge edge per stuck-ON device whose both
	// endpoints are present and at least one is a spare.
	rowNode := make([]int, physRows)
	colNode := make([]int, physCols)
	for i := range rowNode {
		rowNode[i] = -1
	}
	for i := range colNode {
		colNode[i] = -1
	}
	for r, pr := range pl.rowPhys {
		rowNode[pr] = r
	}
	for c, pc := range pl.colPhys {
		colNode[pc] = rows + c
	}
	next := rows + cols
	for pr := 0; pr < physRows; pr++ {
		if rowReach[pr] && rowNode[pr] < 0 {
			rowNode[pr] = next
			next++
		}
	}
	for pc := 0; pc < physCols; pc++ {
		if colReach[pc] && colNode[pc] < 0 {
			colNode[pc] = next
			next++
		}
	}
	for _, f := range stuckOn {
		if !rowReach[f.pr] || !colReach[f.pc] {
			continue // floating island: no used line feeds it
		}
		if invRow[f.pr] >= 0 && invCol[f.pc] >= 0 {
			continue // used×used: handled by the override above
		}
		pl.bridges = append(pl.bridges, bridgeEdge{a: rowNode[f.pr], b: colNode[f.pc], pr: f.pr, pc: f.pc})
	}
	return next
}

// simulate solves the nodal system for one assignment under the trial
// loaded into sv and returns the output node voltages (parallel to
// nw.outputs) in sv's scratch, valid until sv's next solve.
func (nw *network) simulate(sv *solver, assignment []bool) ([]float64, error) {
	if err := nw.solve(sv, assignment); err != nil {
		return nil, err
	}
	sv.out = grow(sv.out, len(nw.outputs))
	for i, w := range nw.outputs {
		sv.out[i] = nw.voltage(sv, w)
	}
	return sv.out, nil
}

// Simulate computes the voltage on every output wire of the programmed
// crossbar under the given assignment (indexed by Entry.Var), with nominal
// devices on a fault-free array. The returned slice parallels d.Outputs.
func Simulate(d *xbar.Design, assignment []bool, model DeviceModel) ([]float64, error) {
	return SimulateEnv(d, assignment, Env{Model: model})
}

// SimulateEnv computes the output voltages under a full electrical
// context: per-device resistances, stuck-fault overrides and spare-line
// bridges per env. Callers simulating many assignments or trials against
// one context should prefer MarginContext / MonteCarloContext, which
// compile the context once.
func SimulateEnv(d *xbar.Design, assignment []bool, env Env) ([]float64, error) {
	nw, err := compile(d, env)
	if err != nil {
		return nil, err
	}
	var sv solver
	nw.trial(&sv, nil)
	return nw.simulate(&sv, assignment)
}

// MarginReport summarizes the electrical separability of a design: the
// lowest output voltage observed for a logical 1 and the highest for a
// logical 0, per output and overall.
type MarginReport struct {
	MinOn     float64 // lowest voltage among logic-1 observations (+Inf if none)
	MaxOff    float64 // highest voltage among logic-0 observations (-Inf if none)
	Checked   int     // assignments simulated
	Separable bool    // MinOn > MaxOff (a sensing threshold exists)
}

// MarginContext simulates the design across assignments (exhaustive when
// nVars <= exhaustiveLimit, else `samples` splitmix64-seeded vectors)
// under the electrical context env, using ref for the expected logic
// values, and reports the worst-case on/off voltages. Context expiry
// returns the best-so-far report (Checked assignments in) together with
// the context error; a simulation failure returns a zero report and the
// error — never a half-trusted mixture.
func MarginContext(ctx context.Context, d *xbar.Design, ref func([]bool) []bool, nVars, exhaustiveLimit, samples int, env Env, seed uint64) (MarginReport, error) {
	nw, err := compile(d, env)
	if err != nil {
		return MarginReport{}, err
	}
	return nw.margin(ctx, ref, nVars, exhaustiveLimit, samples, seed)
}

// margin is the sweep behind MarginContext.
func (nw *network) margin(ctx context.Context, ref func([]bool) []bool, nVars, exhaustiveLimit, samples int, seed uint64) (MarginReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rep := MarginReport{MinOn: math.Inf(1), MaxOff: math.Inf(-1)}
	var sv solver
	nw.trial(&sv, nil)
	run := func(in []bool) error {
		want := ref(in)
		volts, err := nw.simulate(&sv, in)
		if err != nil {
			return err
		}
		for o, w := range want {
			if w {
				if volts[o] < rep.MinOn {
					rep.MinOn = volts[o]
				}
			} else if volts[o] > rep.MaxOff {
				rep.MaxOff = volts[o]
			}
		}
		rep.Checked++
		return nil
	}
	fail := func(err error) (MarginReport, error) {
		if ctxErr := ctx.Err(); ctxErr != nil {
			rep.Separable = rep.MinOn > rep.MaxOff
			return rep, ctxErr
		}
		return MarginReport{}, err
	}
	in := make([]bool, nVars)
	if nVars <= exhaustiveLimit {
		for a := 0; a < 1<<uint(nVars); a++ {
			if err := ctx.Err(); err != nil {
				return fail(err)
			}
			for i := range in {
				in[i] = a&(1<<uint(i)) != 0
			}
			if err := run(in); err != nil {
				return fail(err)
			}
		}
	} else {
		state := seed ^ variationSalt ^ 0x5bf0_3635
		for s := 0; s < samples; s++ {
			if err := ctx.Err(); err != nil {
				return fail(err)
			}
			for i := range in {
				in[i] = splitmix64(&state)&1 != 0
			}
			if err := run(in); err != nil {
				return fail(err)
			}
		}
	}
	rep.Separable = rep.MinOn > rep.MaxOff
	return rep, nil
}
