// Package xbar represents flow-based-computing crossbar designs and
// implements COMPACT's crossbar mapping step: binding a VH-labeled BDD
// graph to wordlines, bitlines and memristors, then evaluating the design
// by sneak-path reachability.
//
// A Design is a matrix of memristor assignments. Each memristor is
// programmed per evaluation to conduct iff its assigned literal is true
// (Off cells never conduct, On cells always conduct). Applying Vin to the
// input wordline, an output reads 1 iff a conducting path reaches its
// output wordline — computed on the design's compiled wire graph (Wires),
// the sneak-path kernel every crossbar shape shares.
package xbar

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"

	"compact/internal/errio"
	"compact/internal/invariant"
	"compact/internal/logic"
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

// Design is a complete crossbar representation of a Boolean function.
type Design struct {
	Rows, Cols int
	// Cells is the Rows x Cols device plane: row 0 is the top-most
	// wordline, row Rows-1 the bottom-most (the input wordline, per the
	// paper's alignment convention).
	Cells Plane
	// InputRow is the wordline driven with Vin.
	InputRow int
	// OutputRows holds one wordline per function output (entries may
	// repeat when outputs share a BDD root).
	OutputRows  []int
	OutputNames []string
	// VarNames names the literal variables (indexed by Entry.Var).
	VarNames []string

	// wires caches the compiled wire graph (see Wires), built on first
	// use and published through an atomic pointer so concurrent first
	// Evals are safe — they may compile twice, but identically. Cells,
	// InputRow and OutputRows must not be mutated after the first Eval;
	// RemapVars and UnmarshalJSON reset the cache.
	wires atomic.Pointer[Wires]
}

// Wires returns the design's compiled wire graph: rows are wires
// 0..Rows-1 and columns Rows..Rows+Cols-1, with one edge per non-Off cell
// in row-major order. Corrupted cells and out-of-range input or output
// rows set its Err.
func (d *Design) Wires() *Wires {
	if w := d.wires.Load(); w != nil {
		return w
	}
	w := NewWires(d.Rows+d.Cols, d.InputRow, append([]int(nil), d.OutputRows...))
	for r := 0; r < d.Cells.Rows(); r++ {
		cs, es := d.Cells.Row(r)
		for i, c := range cs {
			w.Add(r, d.Rows+c, es[i], func() string { return fmt.Sprintf("(%d,%d)", r, c) })
		}
	}
	if w.Err == nil {
		w.Err = d.checkShape()
	}
	d.wires.Store(w)
	return w
}

// checkShape validates the plane's extent and the driven and sensed
// wordlines. An empty design (no rows, no outputs) has nothing to read and
// nothing to drive.
func (d *Design) checkShape() error {
	if d.Cells.Rows() != d.Rows || d.Cells.Cols() != d.Cols {
		return invariant.Violationf("xbar.plane-dims",
			"%dx%d plane in a %dx%d design", d.Cells.Rows(), d.Cells.Cols(), d.Rows, d.Cols)
	}
	if len(d.OutputRows) == 0 && d.Rows == 0 {
		return nil
	}
	if d.InputRow < 0 || d.InputRow >= d.Rows {
		return invariant.Violationf("xbar.eval-input-row",
			"input row %d outside 0..%d", d.InputRow, d.Rows-1)
	}
	for i, r := range d.OutputRows {
		if r < 0 || r >= d.Rows {
			return invariant.Violationf("xbar.eval-output-row",
				"output row %d (#%d) outside 0..%d", r, i, d.Rows-1)
		}
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

// NewDesign builds a rows x cols crossbar programmed with devs (see
// NewPlane); every other crossing is Off.
func NewDesign(rows, cols int, devs []Device) (*Design, error) {
	p, err := NewPlane(rows, cols, devs)
	if err != nil {
		return nil, fmt.Errorf("xbar: %w", err)
	}
	return &Design{Rows: rows, Cols: cols, Cells: p}, nil
}

// Stats summarizes hardware utilization and the paper's cost models.
type Stats struct {
	Rows, Cols int
	S          int // semiperimeter = rows + cols
	D          int // max dimension
	Area       int // rows * cols
	LitCells   int // memristors programmed per evaluation (power model)
	OnCells    int // statically-on memristors (VH stitches etc.)
	// Power is the paper's Section VIII power proxy: the number of
	// memristors programmed from literals per evaluation.
	Power int
	// Delay is the paper's computation-delay proxy: one time step per
	// wordline to program the devices plus one to evaluate.
	Delay int
}

// Stats computes the design's summary statistics.
func (d *Design) Stats() Stats {
	st := Stats{Rows: d.Rows, Cols: d.Cols}
	st.S = d.Rows + d.Cols
	st.D = d.Rows
	if d.Cols > st.D {
		st.D = d.Cols
	}
	st.Area = d.Rows * d.Cols
	st.LitCells, st.OnCells = d.Cells.Counts()
	st.Power = st.LitCells
	st.Delay = d.Rows + 1
	return st
}

// Render writes a human-readable matrix view, as in the paper's Figure 2.
// The view is dense by nature: it prints every crossing.
func (d *Design) Render(w io.Writer) error {
	width := 1
	for _, dev := range d.Cells.Devices() {
		width = max(width, len(dev.E.label(d.VarNames)))
	}
	outOf := make(map[int][]string)
	for i, r := range d.OutputRows {
		name := fmt.Sprintf("f%d", i)
		if i < len(d.OutputNames) {
			name = d.OutputNames[i]
		}
		outOf[r] = append(outOf[r], name)
	}
	ew := errio.NewWriter(w)
	for r := 0; r < d.Rows; r++ {
		cs, es := d.Cells.Row(r)
		for c := 0; c < d.Cols; c++ {
			e := Entry{}
			if len(cs) > 0 && cs[0] == c {
				e, cs, es = es[0], cs[1:], es[1:]
			}
			ew.Printf("%*s ", width, e.label(d.VarNames))
		}
		var marks []string
		if r == d.InputRow {
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
// connectivity over nanowires (rows 0..Rows-1, then cols). The assignment
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
// out-of-range rows and an assignment shorter than the largest literal
// index return an *invariant.Error instead of panicking or
// mis-evaluating.
func (d *Design) EvalChecked(assignment []bool) ([]bool, error) {
	return d.Wires().Eval(assignment)
}

// Eval64 evaluates all outputs under 64 assignments at once. words[i] is
// the 64-assignment value word of variable i (len(words) >= NumVars());
// the result holds one word per output row, bit b giving the output under
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
// input/output rows return an *invariant.Error instead of silently
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
