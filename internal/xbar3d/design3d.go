// Package xbar3d represents K-layer (FLOW-3D style) crossbar designs: K
// stacked nanowire layers with a memristor device plane between each
// adjacent pair, evaluated by sneak-path reachability through devices and
// always-ON via stitches.
//
// The wire stack alternates orientation — even layers carry horizontal
// wordlines, odd layers vertical bitlines — so the footprint of the stack
// is its projection: R = max width over even layers, C = max width over
// odd layers, S = R + C. A 2-layer Design3D is exactly a 2D xbar.Design
// (Lift3D/Map3D pin the correspondence cell for cell), and K >= 3 is the
// FLOW-3D generalization that folds wordlines across layers.
package xbar3d

import (
	"fmt"
	"sync/atomic"

	"compact/internal/invariant"
	"compact/internal/logic"
	"compact/internal/wirelimit"
	"compact/internal/xbar"
)

// MaxWireLayers caps the layer count of any Design3D, wire-decoded or
// built in process. It matches labeling.MaxLayers (asserted by a test so
// the two cannot drift): no published 3D RRAM stack exceeds a handful of
// device layers.
const MaxWireLayers = 8

// WireRef addresses one nanowire in the stack: wire Index of layer Layer.
type WireRef = xbar.WireRef

// Design3D is a complete K-layer crossbar representation of a Boolean
// function. Layer widths are per-layer wire counts; device plane d sits
// between wire layers d and d+1, so Cells[d] is Widths[d] x Widths[d+1]
// and there are len(Widths)-1 device planes.
type Design3D struct {
	// Widths[l] is the number of nanowires on wire layer l (len >= 2).
	Widths []int
	// Cells[d].At(r, c) is the device between wire r of layer d and wire c
	// of layer d+1. On cells are the inter-layer via stitches.
	Cells []xbar.Plane
	// Input is the wire driven with Vin (an even, wordline layer).
	Input WireRef
	// Outputs holds one sensed wire per function output (entries may repeat
	// when outputs share a BDD root).
	Outputs     []WireRef
	OutputNames []string
	// VarNames names the literal variables (indexed by Entry.Var).
	VarNames []string

	// wires caches the compiled wire graph, built lazily on first Eval
	// exactly like xbar.Design's; Cells, Input and Outputs must not be
	// mutated after the first Eval.
	wires atomic.Pointer[xbar.Wires]
}

// K returns the number of wire layers.
func (d *Design3D) K() int { return len(d.Widths) }

// NumWires returns the total nanowire count across all layers.
func (d *Design3D) NumWires() int {
	n := 0
	for _, w := range d.Widths {
		n += w
	}
	return n
}

// WireID flattens a (layer, index) reference into the global wire
// numbering 0..NumWires()-1: layers are concatenated in order.
func (d *Design3D) WireID(ref WireRef) int {
	id := ref.Index
	for l := 0; l < ref.Layer; l++ {
		id += d.Widths[l]
	}
	return id
}

// NewDesign3D builds a K-layer crossbar with the given layer widths (at
// least two layers) and devs[d] programmed on device plane d (see
// xbar.NewPlane; devs may be shorter than the plane count, and every
// crossing not listed is Off). Every dimension is bounds-checked through
// wirelimit before any allocation sized from it — the constructor is the
// single allocation point for wire-decoded stacks, so the caps live here.
func NewDesign3D(widths []int, devs ...[]xbar.Device) (*Design3D, error) {
	return newDesign3D(widths, 0, devs)
}

// newDesign3D is NewDesign3D with an optional cap on the stack's total
// crossing count (see checkWidths).
func newDesign3D(widths []int, stackCap int, devs [][]xbar.Device) (*Design3D, error) {
	if err := checkWidths(widths, stackCap); err != nil {
		return nil, err
	}
	if len(devs) > len(widths)-1 {
		return nil, fmt.Errorf("xbar3d: devices for %d planes in a %d-layer stack", len(devs), len(widths))
	}
	d := &Design3D{Widths: append([]int(nil), widths...)}
	d.Cells = make([]xbar.Plane, len(widths)-1)
	for dl := range d.Cells {
		rows, cols := widths[dl], widths[dl+1]
		if err := wirelimit.CheckCells(fmt.Sprintf("plane %d", dl), rows, cols, maxWireCells3D); err != nil {
			return nil, fmt.Errorf("xbar3d: %v", err)
		}
		var pd []xbar.Device
		if dl < len(devs) {
			pd = devs[dl]
		}
		p, err := xbar.NewPlane(rows, cols, pd)
		if err != nil {
			return nil, fmt.Errorf("xbar3d: plane %d: %w", dl, err)
		}
		d.Cells[dl] = p
	}
	return d, nil
}

// checkWidths bounds a stack's shape: the layer count, each width and,
// when stackCap > 0, the stack's total crossing count (newDesign3D caps
// each plane's). Only the wire decoder sets stackCap: each plane may pass
// its own cap while the stack as a whole still spans more crossings than a
// decoded body may declare.
func checkWidths(widths []int, stackCap int) error {
	if len(widths) < 2 {
		return fmt.Errorf("xbar3d: %d wire layers (need >= 2)", len(widths))
	}
	if err := wirelimit.CheckCount("wire layers", len(widths), MaxWireLayers); err != nil {
		return fmt.Errorf("xbar3d: %v", err)
	}
	for l, w := range widths {
		if err := wirelimit.CheckDim(fmt.Sprintf("layer %d width", l), w); err != nil {
			return fmt.Errorf("xbar3d: %v", err)
		}
	}
	if stackCap > 0 {
		// Widths are bounded and so is the layer count, so the total
		// cannot overflow.
		total := 0
		for dl := 0; dl+1 < len(widths); dl++ {
			total += widths[dl] * widths[dl+1]
		}
		if total > stackCap {
			return fmt.Errorf("xbar3d: %v", &wirelimit.LimitError{What: "design3d stack cells", Got: total, Max: stackCap})
		}
	}
	return nil
}

// Wires returns the stack's compiled wire graph in the global numbering
// of WireID, with one edge per non-Off device in (plane, row, col) order.
// A malformed shape or a corrupted cell sets its Err.
func (d *Design3D) Wires() *xbar.Wires {
	if w := d.wires.Load(); w != nil {
		return w
	}
	w := xbar.NewWires(d.NumWires(), 0, nil)
	if w.Err = d.checkShape(); w.Err == nil {
		w.Input = d.WireID(d.Input)
		for _, o := range d.Outputs {
			w.Outputs = append(w.Outputs, d.WireID(o))
		}
		base := 0
		for dl := range d.Cells {
			plane := &d.Cells[dl]
			next := base + d.Widths[dl]
			for r := 0; r < plane.Rows(); r++ {
				cs, es := plane.Row(r)
				for i, c := range cs {
					w.Add(base+r, next+c, es[i], func() string { return fmt.Sprintf("(%d,%d,%d)", dl, r, c) })
				}
			}
			base = next
		}
	}
	d.wires.Store(w)
	return w
}

// checkShape validates the structural invariants Eval relies on: layer
// count, per-plane dimensions, and in-range input/output wire references.
func (d *Design3D) checkShape() error {
	k := len(d.Widths)
	if k < 2 {
		return invariant.Violationf("xbar3d.layers", "%d wire layers (need >= 2)", k)
	}
	if len(d.Cells) != k-1 {
		return invariant.Violationf("xbar3d.planes", "%d device planes for %d wire layers", len(d.Cells), k)
	}
	for dl := range d.Cells {
		if rows := d.Cells[dl].Rows(); rows != d.Widths[dl] {
			return invariant.Violationf("xbar3d.plane-rows",
				"plane %d has %d rows, layer width is %d", dl, rows, d.Widths[dl])
		}
		if cols := d.Cells[dl].Cols(); cols != d.Widths[dl+1] {
			return invariant.Violationf("xbar3d.plane-cols",
				"plane %d has %d cols, layer width is %d", dl, cols, d.Widths[dl+1])
		}
	}
	if err := d.checkRef("input", d.Input); err != nil {
		return err
	}
	for i, o := range d.Outputs {
		if err := d.checkRef(fmt.Sprintf("output #%d", i), o); err != nil {
			return err
		}
	}
	return nil
}

func (d *Design3D) checkRef(what string, ref WireRef) error {
	if ref.Layer < 0 || ref.Layer >= len(d.Widths) {
		return invariant.Violationf("xbar3d.wire-layer",
			"%s wire layer %d outside 0..%d", what, ref.Layer, len(d.Widths)-1)
	}
	if ref.Index < 0 || ref.Index >= d.Widths[ref.Layer] {
		return invariant.Violationf("xbar3d.wire-index",
			"%s wire %d outside layer %d width %d", what, ref.Index, ref.Layer, d.Widths[ref.Layer])
	}
	return nil
}

// NumVars returns the number of assignment entries the design requires.
func (d *Design3D) NumVars() int {
	n := int(d.Wires().MaxVar) + 1
	if len(d.VarNames) > n {
		n = len(d.VarNames)
	}
	return n
}

// Stats3D summarizes the stack's footprint and utilization under the
// projection cost model (see the package comment).
type Stats3D struct {
	K      int   // wire layers
	Widths []int // wires per layer
	R      int   // footprint rows: max width over even layers
	C      int   // footprint cols: max width over odd layers
	S      int   // semiperimeter of the footprint
	D      int   // max footprint dimension
	Area   int   // total device-plane extent: sum of Widths[d]*Widths[d+1]
	// LitCells / OnCells / Power follow the 2D Stats semantics; OnCells
	// counts the via stitches.
	LitCells int
	OnCells  int
	Power    int
	// Delay is the 2D computation-delay proxy on the projection: one step
	// per footprint wordline to program plus one to evaluate.
	Delay int
}

// Stats computes the design's summary statistics.
func (d *Design3D) Stats() Stats3D {
	st := Stats3D{K: len(d.Widths), Widths: append([]int(nil), d.Widths...)}
	for l, w := range d.Widths {
		if l%2 == 0 {
			if w > st.R {
				st.R = w
			}
		} else if w > st.C {
			st.C = w
		}
	}
	st.S = st.R + st.C
	st.D = st.R
	if st.C > st.D {
		st.D = st.C
	}
	for dl := range d.Cells {
		st.Area += d.Widths[dl] * d.Widths[dl+1]
	}
	for dl := range d.Cells {
		lit, on := d.Cells[dl].Counts()
		st.LitCells += lit
		st.OnCells += on
	}
	st.Power = st.LitCells
	st.Delay = st.R + 1
	return st
}

// Eval evaluates all outputs under the assignment by union-find
// connectivity over the global wire numbering — the scalar oracle the
// word-parallel Eval64 is fuzz-checked against. Precondition violations
// panic with the structured invariant error EvalChecked would return.
func (d *Design3D) Eval(assignment []bool) []bool {
	out, err := d.EvalChecked(assignment)
	if err != nil {
		//lint:ignore panicfree documented Eval precondition on programmer-supplied assignments; EvalChecked is the error-returning form for wire-decoded designs
		panic(err)
	}
	return out
}

// EvalChecked is Eval with preconditions checked: corrupted cells,
// malformed shapes, out-of-range wire references and short assignments
// return an *invariant.Error instead of mis-evaluating.
func (d *Design3D) EvalChecked(assignment []bool) ([]bool, error) {
	return d.Wires().Eval(assignment)
}

// Eval64 evaluates all outputs under 64 assignments at once; see
// xbar.Design.Eval64 for the word convention. Precondition violations
// panic; Eval64Checked is the error-returning form.
func (d *Design3D) Eval64(words []uint64) []uint64 {
	out, err := d.Eval64Checked(words)
	if err != nil {
		//lint:ignore panicfree documented Eval64 precondition on programmer-supplied assignments; Eval64Checked is the error-returning form for wire-decoded designs
		panic(err)
	}
	return out
}

// Eval64Checked is Eval64 with the preconditions checked, mirroring
// EvalChecked's validation.
func (d *Design3D) Eval64Checked(words []uint64) ([]uint64, error) {
	return d.Wires().Eval64(words)
}

// VerifyAgainst checks the design against a scalar reference evaluator;
// the enumeration, sampling and witness semantics are exactly
// xbar.VerifyEquiv's (shared driver).
func (d *Design3D) VerifyAgainst(ref func([]bool) []bool, nVars, exhaustiveLimit, samples int, seed uint64) []bool {
	return xbar.VerifyEquiv(d.Eval64Checked, ref, nil, nVars, exhaustiveLimit, samples, seed)
}

// VerifyAgainst64 is VerifyAgainst with a word-parallel reference
// (logic.Network.Eval64 has the required shape).
func (d *Design3D) VerifyAgainst64(ref64 func([]uint64) []uint64, nVars, exhaustiveLimit, samples int, seed uint64) []bool {
	return xbar.VerifyEquiv(d.Eval64Checked, nil, ref64, nVars, exhaustiveLimit, samples, seed)
}

// FormalVerify3D proves, for every input assignment, that the layered
// design computes exactly the network's functions by comparing canonical
// BDDs (xbar.Wires.FormalVerify). The design's variables must be in
// network-input order (which core.Synthesize guarantees).
func FormalVerify3D(d *Design3D, nw *logic.Network, nodeLimit int) error {
	if len(d.VarNames) != nw.NumInputs() {
		return fmt.Errorf("xbar3d: design has %d variables, network %d inputs", len(d.VarNames), nw.NumInputs())
	}
	if err := d.Wires().FormalVerify(nw, nodeLimit); err != nil {
		return fmt.Errorf("xbar3d: %w", err)
	}
	return nil
}

// RemapVars rewrites every literal cell's variable through remap and
// replaces VarNames, mirroring xbar.Design.RemapVars for the layered path
// (core remaps BDD-level variables into network-input order).
func (d *Design3D) RemapVars(remap []int, names []string) error {
	for dl := range d.Cells {
		if err := d.Cells[dl].RemapVars(remap); err != nil {
			return fmt.Errorf("xbar3d: plane %d: %w", dl, err)
		}
	}
	d.VarNames = names
	d.wires.Store(nil) // invalidate the compiled wire graph
	return nil
}

// Clone deep-copies the design (the compiled wire graph is not shared).
func (d *Design3D) Clone() *Design3D {
	nd := &Design3D{Widths: append([]int(nil), d.Widths...), Cells: make([]xbar.Plane, len(d.Cells))}
	for dl := range d.Cells {
		nd.Cells[dl] = d.Cells[dl].With(nil)
	}
	nd.Input = d.Input
	nd.Outputs = append([]WireRef(nil), d.Outputs...)
	nd.OutputNames = append([]string(nil), d.OutputNames...)
	nd.VarNames = append([]string(nil), d.VarNames...)
	return nd
}
