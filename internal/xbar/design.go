// Package xbar represents flow-based-computing crossbar designs and
// implements COMPACT's crossbar mapping step: binding a labeled BDD graph
// to wordlines, bitlines and memristors, then evaluating the design by
// sneak-path reachability.
//
// A Design is a stack of nanowire layers with a plane of memristor
// assignments between each adjacent pair: the classic 2D crossbar is the
// two-layer stack, a FLOW-3D K-layer stack the same object with more
// planes. Each memristor is programmed per evaluation to conduct iff its
// assigned literal is true (Off cells never conduct, On cells always
// conduct). Applying Vin to the input wordline, an output reads 1 iff a
// conducting path reaches its output wordline — computed on the design's
// compiled wire graph (Wires), the sneak-path kernel every crossbar shape
// shares.
package xbar

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"

	"compact/internal/errio"
	"compact/internal/invariant"
	"compact/internal/logic"
	"compact/internal/wirelimit"
)

// EntryKind classifies a crossbar cell.
type EntryKind uint8

// Cell kinds.
const (
	Off EntryKind = iota // always high resistance ('0')
	On                   // always low resistance ('1')
	Lit                  // programmed from a Boolean literal
)

// Entry is one memristor assignment. Planes store one per programmed
// device (see Plane); the zero Entry is Off.
type Entry struct {
	Kind EntryKind
	Neg  bool  // negated literal
	Var  int32 // variable index for Lit cells
}

// String renders the entry as in the paper's figures: 0, 1, a, ¬a.
func (e Entry) String() string { return e.label(nil) }

func (e Entry) label(names []string) string {
	switch e.Kind {
	case Off:
		return "0"
	case On:
		return "1"
	default:
		name := fmt.Sprintf("x%d", e.Var)
		if names != nil && int(e.Var) < len(names) {
			name = names[e.Var]
		}
		if e.Neg {
			return "!" + name
		}
		return name
	}
}

// MaxWireLayers caps the layer count of any Design. It matches
// labeling.MaxLayers (asserted by a test so the two cannot drift): no
// published 3D RRAM stack exceeds a handful of device layers.
const MaxWireLayers = 8

// Design is a complete crossbar representation of a Boolean function: a
// stack of K >= 2 nanowire layers with a device plane between each
// adjacent pair. Even layers carry horizontal wordlines, odd layers
// vertical bitlines. The classic 2D crossbar is the K = 2 case (layer 0
// its rows, layer 1 its columns, Planes[0] its cell matrix); K >= 3 is the
// FLOW-3D stack that folds wordlines across layers through always-ON via
// stitches.
type Design struct {
	// Rows and Cols are the footprint the cost model prices: the widest
	// even layer and the widest odd layer (Widths[0] and Widths[1] at
	// K = 2). Every constructor sets them and the shape check enforces them.
	Rows, Cols int
	// Widths[l] is the number of nanowires on wire layer l.
	Widths []int
	// Planes[p] is the Widths[p] x Widths[p+1] device plane between wire
	// layers p and p+1: Planes[p].At(r, c) joins wire r of layer p to wire
	// c of layer p+1. On cells are via stitches (VH stitches at K = 2).
	// Wordline 0 is the top-most; the input wordline sits at the bottom of
	// its layer, per the paper's alignment convention.
	Planes []Plane
	// Input is the wire driven with Vin; Outputs holds one sensed wire per
	// function output (entries may repeat when outputs share a BDD root).
	// Both lie on even (wordline) layers, where the periphery reaches.
	Input       WireRef
	Outputs     []WireRef
	OutputNames []string
	// VarNames names the literal variables (indexed by Entry.Var).
	VarNames []string

	// wires caches the compiled wire graph (see Wires), built on first
	// use and published through an atomic pointer so concurrent first
	// Evals are safe — they may compile twice, but identically. Planes,
	// Input and Outputs must not be mutated after the first Eval;
	// RemapVars and UnmarshalJSON reset the cache.
	wires atomic.Pointer[Wires]
}

// K returns the number of wire layers.
func (d *Design) K() int { return len(d.Widths) }

// footprint projects layer widths onto the die: the widest even layer
// and the widest odd layer.
func footprint(widths []int) (rows, cols int) {
	for l, w := range widths {
		if l%2 == 0 {
			rows = max(rows, w)
		} else {
			cols = max(cols, w)
		}
	}
	return rows, cols
}

// NewDesign builds a crossbar stack with the given layer widths (at least
// two) and devs[p] programmed on device plane p (see NewPlane; devs may be
// shorter than the plane count, and every crossing not listed is Off). A
// 2D rows x cols crossbar is NewDesign([]int{rows, cols}, devs). Input is
// wordline 0 and there are no outputs until the caller sets them.
func NewDesign(widths []int, devs ...[]Device) (*Design, error) {
	return newDesign(widths, 0, devs)
}

// newDesign is NewDesign with the wire decoder's caps when cellCap > 0:
// every width passes wirelimit.CheckDim, each plane's crossing count and
// the stack's total stay within cellCap. Each check sits next to the
// allocation it guards.
func newDesign(widths []int, cellCap int, devs [][]Device) (*Design, error) {
	if len(widths) < 2 {
		return nil, fmt.Errorf("xbar: %d wire layers (need >= 2)", len(widths))
	}
	if err := wirelimit.CheckCount("wire layers", len(widths), MaxWireLayers); err != nil {
		return nil, fmt.Errorf("xbar: %v", err)
	}
	if len(devs) > len(widths)-1 {
		return nil, fmt.Errorf("xbar: devices for %d planes in a %d-layer stack", len(devs), len(widths))
	}
	if cellCap > 0 {
		total := 0
		for l, w := range widths {
			if err := wirelimit.CheckDim(fmt.Sprintf("layer %d width", l), w); err != nil {
				return nil, fmt.Errorf("xbar: %v", err)
			}
			if l > 0 {
				// Widths and the layer count are bounded: no overflow.
				total += widths[l-1] * w
			}
		}
		if total > cellCap {
			return nil, fmt.Errorf("xbar: %v", &wirelimit.LimitError{What: "design stack cells", Got: total, Max: cellCap})
		}
	}
	d := &Design{Widths: append([]int(nil), widths...), Planes: make([]Plane, len(widths)-1)}
	d.Rows, d.Cols = footprint(widths)
	for p := range d.Planes {
		rows, cols := widths[p], widths[p+1]
		if cellCap > 0 {
			if err := wirelimit.CheckCells(fmt.Sprintf("plane %d", p), rows, cols, cellCap); err != nil {
				return nil, fmt.Errorf("xbar: %v", err)
			}
		}
		var pd []Device
		if p < len(devs) {
			pd = devs[p]
		}
		pl, err := NewPlane(rows, cols, pd)
		if err != nil {
			return nil, fmt.Errorf("xbar: plane %d: %w", p, err)
		}
		d.Planes[p] = pl
	}
	return d, nil
}

// wireID flattens a (layer, index) reference into the wire numbering of
// Wires: layers are concatenated in order.
func (d *Design) wireID(ref WireRef) int {
	id := ref.Index
	for l := 0; l < ref.Layer; l++ {
		id += d.Widths[l]
	}
	return id
}

// Wires returns the design's compiled wire graph: layer 0's wires first,
// then layer 1's and so on (at K = 2, rows are wires 0..Rows-1 and columns
// Rows..Rows+Cols-1), with one edge per non-Off device in (plane, row,
// col) order. A malformed shape or a corrupted cell sets its Err.
func (d *Design) Wires() *Wires {
	if w := d.wires.Load(); w != nil {
		return w
	}
	n := 0
	for _, wd := range d.Widths {
		n += wd
	}
	w := NewWires(n, 0, nil)
	if w.Err = d.checkShape(); w.Err == nil {
		w.Input = d.wireID(d.Input)
		for _, o := range d.Outputs {
			w.Outputs = append(w.Outputs, d.wireID(o))
		}
		base := 0
		for p := range d.Planes {
			plane := &d.Planes[p]
			next := base + d.Widths[p]
			for r := 0; r < plane.Rows(); r++ {
				cs, es := plane.Row(r)
				for i, c := range cs {
					w.Add(base+r, next+c, es[i], func() string { return d.cellName(p, r, c) })
				}
			}
			base = next
		}
	}
	d.wires.Store(w)
	return w
}

// cellName names a crossing in messages: (r,c) in a 2D crossbar,
// (p,r,c) in a stack.
func (d *Design) cellName(p, r, c int) string {
	if len(d.Widths) == 2 {
		return fmt.Sprintf("(%d,%d)", r, c)
	}
	return fmt.Sprintf("(%d,%d,%d)", p, r, c)
}

// checkShape validates the structural invariants the evaluators rely on:
// the layer count, each plane's extent, the footprint, and the driven and
// sensed wires. A design with no wordlines and no outputs has nothing to
// read and nothing to drive.
func (d *Design) checkShape() error {
	k := len(d.Widths)
	if k < 2 {
		return invariant.Violationf("xbar.layers", "%d wire layers (need >= 2)", k)
	}
	if len(d.Planes) != k-1 {
		return invariant.Violationf("xbar.planes", "%d device planes for %d wire layers", len(d.Planes), k)
	}
	for p := range d.Planes {
		if rows, cols := d.Planes[p].Rows(), d.Planes[p].Cols(); rows != d.Widths[p] || cols != d.Widths[p+1] {
			return invariant.Violationf("xbar.plane-dims",
				"plane %d is %dx%d between layers of widths %d and %d", p, rows, cols, d.Widths[p], d.Widths[p+1])
		}
	}
	if rows, cols := footprint(d.Widths); d.Rows != rows || d.Cols != cols {
		return invariant.Violationf("xbar.footprint",
			"design claims a %dx%d footprint, its layers span %dx%d", d.Rows, d.Cols, rows, cols)
	}
	if len(d.Outputs) == 0 && d.Rows == 0 {
		return nil
	}
	if err := d.checkRef("input", "", d.Input); err != nil {
		return err
	}
	for i, o := range d.Outputs {
		if err := d.checkRef("output", fmt.Sprintf(" (#%d)", i), o); err != nil {
			return err
		}
	}
	return nil
}

// checkRef requires ref to name a wire of an even (wordline) layer: a row
// of a 2D design.
func (d *Design) checkRef(what, which string, ref WireRef) error {
	line := "wire"
	if len(d.Widths) == 2 {
		line = "row"
	}
	if ref.Layer < 0 || ref.Layer >= len(d.Widths) || ref.Layer%2 != 0 {
		return invariant.Violationf("xbar.wire-layer",
			"%s %s%s on layer %d, not a wordline layer of 0..%d", what, line, which, ref.Layer, len(d.Widths)-1)
	}
	if ref.Index < 0 || ref.Index >= d.Widths[ref.Layer] {
		return invariant.Violationf("xbar.wire-index",
			"%s %s %d%s outside 0..%d of layer %d", what, line, ref.Index, which, d.Widths[ref.Layer]-1, ref.Layer)
	}
	return nil
}

// NumVars returns the number of assignment entries the design requires:
// enough to cover every literal cell and every named variable. Eval
// assignments must be at least this long.
func (d *Design) NumVars() int {
	n := int(d.Wires().MaxVar) + 1
	if len(d.VarNames) > n {
		n = len(d.VarNames)
	}
	return n
}

// Stats summarizes hardware utilization and the paper's cost models. A
// stack is priced by its footprint (Rows x Cols); Area counts every
// plane's crossings, which at K = 2 is Rows * Cols.
type Stats struct {
	K          int   // wire layers
	Widths     []int // wires per layer
	Rows, Cols int
	S          int // semiperimeter = rows + cols
	D          int // max dimension
	Area       int // crossings over all device planes
	LitCells   int // memristors programmed per evaluation (power model)
	OnCells    int // statically-on memristors (VH and via stitches)
	// Power is the paper's Section VIII power proxy: the number of
	// memristors programmed from literals per evaluation.
	Power int
	// Delay is the paper's computation-delay proxy: one time step per
	// footprint wordline to program the devices plus one to evaluate.
	Delay int
}

// Stats computes the design's summary statistics.
func (d *Design) Stats() Stats {
	st := Stats{K: len(d.Widths), Widths: append([]int(nil), d.Widths...), Rows: d.Rows, Cols: d.Cols}
	st.S = d.Rows + d.Cols
	st.D = max(d.Rows, d.Cols)
	for l := 1; l < len(d.Widths); l++ {
		st.Area += d.Widths[l-1] * d.Widths[l]
	}
	for p := range d.Planes {
		lit, on := d.Planes[p].Counts()
		st.LitCells += lit
		st.OnCells += on
	}
	st.Power = st.LitCells
	st.Delay = d.Rows + 1
	return st
}

// Render writes a human-readable matrix view of a 2D (K = 2) design, as
// in the paper's Figure 2. The view is dense by nature: it prints every
// crossing.
func (d *Design) Render(w io.Writer) error {
	cells, err := d.flat()
	if err != nil {
		return err
	}
	width := 1
	for _, dev := range cells.Devices() {
		width = max(width, len(dev.E.label(d.VarNames)))
	}
	outOf := make(map[int][]string)
	for i, o := range d.Outputs {
		name := fmt.Sprintf("f%d", i)
		if i < len(d.OutputNames) {
			name = d.OutputNames[i]
		}
		outOf[o.Index] = append(outOf[o.Index], name)
	}
	ew := errio.NewWriter(w)
	for r := 0; r < d.Rows; r++ {
		cs, es := cells.Row(r)
		for c := 0; c < d.Cols; c++ {
			e := Entry{}
			if len(cs) > 0 && cs[0] == c {
				e, cs, es = es[0], cs[1:], es[1:]
			}
			ew.Printf("%*s ", width, e.label(d.VarNames))
		}
		var marks []string
		if r == d.Input.Index {
			marks = append(marks, "<- Vin")
		}
		if names := outOf[r]; len(names) > 0 {
			marks = append(marks, "-> "+strings.Join(names, ","))
		}
		if len(marks) > 0 {
			ew.Printf(" %s", strings.Join(marks, " "))
		}
		ew.Println()
	}
	return ew.Err()
}

// flat returns the cell matrix of a well-formed 2D design, the one shape
// the drawings (Render, WriteSVG) can show.
func (d *Design) flat() (*Plane, error) {
	if err := d.checkShape(); err != nil {
		return nil, fmt.Errorf("xbar: %w", err)
	}
	if len(d.Widths) != 2 {
		return nil, fmt.Errorf("xbar: a %d-layer stack has no single cell matrix to draw", len(d.Widths))
	}
	return &d.Planes[0], nil
}

// Conducts reports whether cell e conducts under the assignment (indexed
// by Entry.Var). A literal the assignment does not cover (including a
// negative index) and an unknown Kind never conduct — the defensive
// backstop for corrupted entries; the checked evaluators report both as
// a structured *invariant.Error (see Wires.Add) instead of relying on it.
func (e Entry) Conducts(assignment []bool) bool {
	switch e.Kind {
	case On:
		return true
	case Lit:
		if int(e.Var) >= len(assignment) || e.Var < 0 {
			return false
		}
		return assignment[e.Var] != e.Neg
	default:
		return false
	}
}

// Eval evaluates all outputs under the assignment by union-find
// connectivity over nanowires (numbered as in Wires). The assignment
// must cover every literal the design references (len >= NumVars());
// violating that precondition panics with the structured invariant error
// EvalChecked would return — callers evaluating designs decoded from
// untrusted wire data must use EvalChecked.
func (d *Design) Eval(assignment []bool) []bool {
	out, err := d.EvalChecked(assignment)
	if err != nil {
		//lint:ignore panicfree documented Eval precondition on programmer-supplied assignments; EvalChecked is the error-returning form for wire-decoded designs
		panic(err)
	}
	return out
}

// EvalChecked is Eval with its preconditions checked: corrupted cells,
// a malformed shape and an assignment shorter than the largest literal
// index return an *invariant.Error instead of panicking or
// mis-evaluating.
func (d *Design) EvalChecked(assignment []bool) ([]bool, error) {
	return d.Wires().Eval(assignment)
}

// Eval64 evaluates all outputs under 64 assignments at once. words[i] is
// the 64-assignment value word of variable i (len(words) >= NumVars());
// the result holds one word per output, bit b giving the output under
// assignment b. Like Eval it panics with the structured invariant error on
// precondition violations; Eval64Checked is the error-returning form.
func (d *Design) Eval64(words []uint64) []uint64 {
	out, err := d.Eval64Checked(words)
	if err != nil {
		//lint:ignore panicfree documented Eval64 precondition on programmer-supplied assignments; Eval64Checked is the error-returning form for wire-decoded designs
		panic(err)
	}
	return out
}

// Eval64Checked is Eval64 with the preconditions checked: corrupted cells
// (negative Var, unknown Kind), short assignment words and out-of-range
// input/output wires return an *invariant.Error instead of silently
// mis-evaluating.
func (d *Design) Eval64Checked(words []uint64) ([]uint64, error) {
	return d.Wires().Eval64(words)
}

// FormalVerify proves (for every one of the 2^n input assignments) that
// the design computes exactly the same functions as the network, by
// comparing canonical BDDs (Wires.FormalVerify). The design's variables
// must be in network-input order (which core.Synthesize guarantees). On
// disagreement the returned error names the first mismatching output and
// a witness assignment.
func FormalVerify(d *Design, nw *logic.Network, nodeLimit int) error {
	if len(d.VarNames) != nw.NumInputs() {
		return fmt.Errorf("xbar: design has %d variables, network %d inputs", len(d.VarNames), nw.NumInputs())
	}
	if err := d.Wires().FormalVerify(nw, nodeLimit); err != nil {
		return fmt.Errorf("xbar: %w", err)
	}
	return nil
}
