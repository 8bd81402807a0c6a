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
// arrays, a 2D crossbar and a K-layer stack alike as one physical stack
// (plane p joins the physical wires of layers p and p+1, as in xsat's
// MemristorCrossbar): per-device resistances (ResistanceMap, log-normal
// variation via SampleResistances) and the analog consequences of the
// defect maps that the logical model ignores — a stuck-ON device on the
// crossing of a used wire and an unused spare ties that spare into the
// network as a sneak-path bridge, and a spare of a middle layer chains the
// faults of the planes on both sides of it, even though the placement
// layer correctly treats spares as logically harmless. Env carries this
// electrical context; MonteCarloContext runs seeded variation trials over
// it.
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

// Env describes the electrical context of one simulation: the device
// model and the physical stack the design is placed on (defect maps +
// placement), whose stuck faults become analog effects. The zero Model is
// invalid; everything else defaults to "nominal devices on an array
// exactly the design's size". A 2D design and a K-layer stack take the
// same context: one defect map per device plane and one binding per wire
// layer.
type Env struct {
	// Model supplies the nominal device parameters and the drive/sense
	// configuration.
	Model DeviceModel
	// Defects is the physical stack, one map per device plane (a 2D
	// design has one). Stuck devices override the conductance of the cells
	// placed on them, and stuck-ON devices on crossings of a spare wire tie
	// the spare in as a sneak-path bridge. nil (or a nil map) means the
	// plane is exactly the design's with no faults.
	Defects []*defect.Map
	// Placement binds each layer's logical wires to physical ones (nil =
	// identity).
	Placement *xbar.Placement
}

// network is a compiled simulation — everything that does not change
// between assignments or Monte Carlo trials: the node space and its two
// bipartite sides, the driven and sensed nodes, and the device planes that
// join the nodes, one per device plane of the design, over the design's
// wire numbering (xbar.Design.Wires) extended by the tied-in spares.
// simulate is re-entrant: concurrent trials share one network, each with
// its own solver.
type network struct {
	model   DeviceModel
	n       int   // total nodes incl. bridge-tied spares
	phys    []int // physical width of every wire layer
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
}

// plane is one device plane: crossing (r, c) is a conductance between node
// rowBase+r and node colBase+c — every crossing, since an Off device still
// leaks. The plane is the design's own — referenced, never copied, so
// compiling costs no memory per device.
type plane struct {
	cells            xbar.Plane
	rowBase, colBase int
	rowPhys, colPhys []int  // logical wire -> physical device wire
	override         []int8 // per cell, row-major: 0 none, +1 stuck-ON, -1 stuck-OFF (nil = no faults)
	bridges          []bridgeEdge
}

// bridgeEdge is one stuck-ON device tying a spare wire into the array: a
// conductance of 1/R_on between two nodes of the extended system.
type bridgeEdge struct {
	a, b   int // extended node indices
	pr, pc int // physical device position (per-device resistance lookup)
}

// compile validates the model, the design (its compiled wire graph's Err
// covers the plane shapes, the wire references and corrupted cells) and
// the Env's physical stack (xbar.Stack.Bind), and compiles the design
// onto that stack (place).
func compile(d *xbar.Design, env Env) (*network, error) {
	if err := env.Model.Validate(); err != nil {
		return nil, err
	}
	w := d.Wires()
	if w.Err != nil {
		return nil, fmt.Errorf("spice: %w", w.Err)
	}
	var perms [][]int
	if env.Placement != nil {
		perms = env.Placement.Perms
	}
	phys, perms, err := d.Stack(env.Defects).Bind(perms)
	if err != nil {
		return nil, fmt.Errorf("spice: %w", err)
	}
	nw := &network{model: env.Model, n: w.N, phys: phys, input: w.Input, outputs: w.Outputs}
	nw.place(d, env.Defects, perms)
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

// place compiles the design's planes onto the physical stack: plane p
// joins the wires of layer p (rows) to those of layer p+1 (columns),
// binds them through perms[p] and perms[p+1], and takes the stuck-state
// overrides of maps[p] for the cells placed on faulty devices. Spare
// wires reachable from the used ones through chains of stuck-ON devices
// — across planes: a spare of layer l chains the faults of planes l−1
// and l — become extra nodes, numbered layer by layer, then by physical
// wire, and each stuck-ON device with a spare end becomes a bridge.
// Spares not so reachable stay floating (they carry no current and would
// make the system singular); stuck-OFF faults on spare crossings are
// ignored, as are the healthy off-state devices on spare crossings —
// their leakage onto a floating wire is second-order next to a stuck-ON
// short (documented approximation, DESIGN §14).
func (nw *network) place(d *xbar.Design, maps []*defect.Map, perms [][]int) {
	// node[l][w] is the node of physical wire w of layer l: the design's
	// wire for a used one, -1 for a spare until it is reached. base[l] is
	// the node of layer l's first logical wire.
	node := make([][]int, len(perms))
	base := make([]int, len(perms))
	for l, perm := range perms {
		if l > 0 {
			base[l] = base[l-1] + len(perms[l-1])
		}
		node[l] = make([]int, nw.phys[l])
		for w := range node[l] {
			node[l][w] = -1
		}
		for i, w := range perm {
			node[l][w] = base[l] + i
		}
	}
	type fault struct{ p, pr, pc int }
	var stuckOn []fault
	nw.planes = make([]plane, len(d.Planes))
	for p, cells := range d.Planes {
		pl := plane{cells: cells, rowBase: base[p], colBase: base[p+1], rowPhys: perms[p], colPhys: perms[p+1]}
		var dm *defect.Map
		if maps != nil {
			dm = maps[p]
		}
		cols := len(perms[p+1])
		for _, fc := range dm.Cells() {
			r, c := node[p][fc.Row], node[p+1][fc.Col]
			if r >= 0 && c >= 0 {
				// Used×used crossing: the fabricated device pins the cell's
				// conductance regardless of what the design programs there.
				if pl.override == nil {
					pl.override = make([]int8, len(perms[p])*cols)
				}
				i := (r-base[p])*cols + c - base[p+1]
				pl.override[i] = -1
				if fc.Kind == defect.StuckOn {
					pl.override[i] = 1
				}
			} else if fc.Kind == defect.StuckOn {
				stuckOn = append(stuckOn, fault{p, fc.Row, fc.Col})
			}
		}
		nw.planes[p] = pl
	}
	if len(stuckOn) == 0 {
		return
	}

	// Reach the spares: a fixpoint over stuck-ON adjacency from the used
	// wires, marking each reached spare -2 (possibly through chains of
	// spares bridged to each other, on any plane).
	const reached = -2
	for changed := true; changed; {
		changed = false
		for _, f := range stuckOn {
			a, b := &node[f.p][f.pr], &node[f.p+1][f.pc]
			if *a != -1 && *b == -1 {
				*b, changed = reached, true
			}
			if *b != -1 && *a == -1 {
				*a, changed = reached, true
			}
		}
	}
	for _, ws := range node {
		for w, v := range ws {
			if v == reached {
				ws[w] = nw.n
				nw.n++
			}
		}
	}
	for _, f := range stuckOn {
		a, b := node[f.p][f.pr], node[f.p+1][f.pc]
		if a < 0 || b < 0 {
			continue // floating island: no used wire feeds it
		}
		nw.planes[f.p].bridges = append(nw.planes[f.p].bridges, bridgeEdge{a: a, b: b, pr: f.pr, pc: f.pc})
	}
}

// sample draws one Monte Carlo trial's resistance maps, one per device
// plane over its physical extent. A one-plane design draws from the trial
// seed itself; a stack derives its plane seeds from the trial seed
// through the splitmix64 stream, so no two (trial, plane) pairs share a
// stream. Zero-extent planes get a nil entry but still consume a seed, so
// their presence never shifts another plane's draw.
func (nw *network) sample(v Variation, trialSeed uint64) ([]*ResistanceMap, error) {
	res := make([]*ResistanceMap, len(nw.planes))
	state := trialSeed
	for p := range res {
		seed := trialSeed
		if len(res) > 1 {
			seed = splitmix64(&state)
		}
		rows, cols := nw.phys[p], nw.phys[p+1]
		if rows == 0 || cols == 0 {
			continue
		}
		m, err := SampleResistances(rows, cols, nw.model, v, seed)
		if err != nil {
			return nil, err
		}
		res[p] = m
	}
	return res, nil
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
	sv := newSolver()
	nw.trial(sv, nil)
	return nw.simulate(sv, assignment)
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
	sv := newSolver()
	nw.trial(sv, nil)
	run := func(in []bool) error {
		want := ref(in)
		volts, err := nw.simulate(sv, in)
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
