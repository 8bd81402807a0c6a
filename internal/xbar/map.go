package xbar

import (
	"fmt"

	"compact/internal/invariant"
	"compact/internal/labeling"
)

// Map performs the paper's crossbar mapping step (Section V-C): nodes are
// bound to wordlines/bitlines according to their labels, VH nodes get a
// statically-on memristor stitching their wordline to their bitline, and
// every graph edge becomes a memristor programmed with its literal.
//
// Wordline order follows the alignment convention: output roots top-most,
// interior wordlines in between, and the 1-terminal (input port) as the
// bottom-most wordline. A labeling produced with alignment disabled is
// still mappable as long as it is valid; output rows then land wherever
// their nodes were bound (roots labeled V-only are rejected — callers
// wanting sensable outputs must label with alignment).
func Map(bg *BDDGraph, labels []labeling.Label) (*Design, error) {
	if err := labeling.Validate(labeling.Problem{G: bg.G}, labels); err != nil {
		return nil, fmt.Errorf("xbar: %w", err)
	}
	n := bg.G.N()
	for _, r := range bg.Roots {
		if r.Kind == RootNode && !labels[r.NodeID].HasH() {
			return nil, fmt.Errorf("xbar: output %q root labeled %s; outputs must lie on wordlines", r.Name, labels[r.NodeID])
		}
	}
	if !labels[bg.TerminalID].HasH() {
		return nil, fmt.Errorf("xbar: 1-terminal labeled %s; the input port must lie on a wordline", labels[bg.TerminalID])
	}

	// Row order: const-0 row (if needed), root rows in output order,
	// interior wordlines, terminal row last (bottom).
	rowOf := make([]int, n)
	colOf := make([]int, n)
	for i := range rowOf {
		rowOf[i], colOf[i] = -1, -1
	}
	nextRow := 0
	needConst0 := false
	for _, r := range bg.Roots {
		if r.Kind == RootConst0 {
			needConst0 = true
		}
	}
	const0Row := -1
	if needConst0 {
		const0Row = nextRow
		nextRow++
	}
	for _, r := range bg.Roots {
		if r.Kind == RootNode && r.NodeID != bg.TerminalID && rowOf[r.NodeID] < 0 {
			rowOf[r.NodeID] = nextRow
			nextRow++
		}
	}
	for v := 0; v < n; v++ {
		if v == bg.TerminalID || rowOf[v] >= 0 || !labels[v].HasH() {
			continue
		}
		rowOf[v] = nextRow
		nextRow++
	}
	rowOf[bg.TerminalID] = nextRow
	nextRow++

	nextCol := 0
	for v := 0; v < n; v++ {
		if labels[v].HasV() {
			colOf[v] = nextCol
			nextCol++
		}
	}
	if nextCol == 0 {
		// Degenerate single-node graphs (e.g. f ≡ 1 only) still need one
		// bitline for a well-formed crossbar.
		nextCol = 1
	}

	d := NewDesign(nextRow, nextCol)
	d.VarNames = bg.VarNames
	d.InputRow = rowOf[bg.TerminalID]
	for _, r := range bg.Roots {
		d.OutputNames = append(d.OutputNames, r.Name)
		switch r.Kind {
		case RootConst0:
			d.OutputRows = append(d.OutputRows, const0Row)
		case RootConst1:
			d.OutputRows = append(d.OutputRows, d.InputRow)
		default:
			d.OutputRows = append(d.OutputRows, rowOf[r.NodeID])
		}
	}

	// VH stitches.
	for v := 0; v < n; v++ {
		if labels[v] == labeling.VH {
			d.Cells[rowOf[v]][colOf[v]] = Entry{Kind: On}
		}
	}
	// Edge assignment.
	for _, e := range bg.G.Edges() {
		u, v := e[0], e[1]
		lit := bg.EdgeLit[edgeKey(u, v)]
		var r, c int
		if labels[u].HasH() && labels[v].HasV() {
			r, c = rowOf[u], colOf[v]
		} else {
			r, c = rowOf[v], colOf[u]
		}
		if d.Cells[r][c].Kind != Off {
			return nil, fmt.Errorf("xbar: cell (%d,%d) assigned twice", r, c)
		}
		d.Cells[r][c] = lit
	}
	// Postconditions: the grid is exactly the one the labeling implies,
	// and every device (one per edge, one stitch per VH node) landed on
	// its own wordline×bitline crossing.
	wantRows, wantCols, vh := 0, 0, 0
	for v := 0; v < n; v++ {
		if labels[v].HasH() {
			wantRows++
		}
		if labels[v].HasV() {
			wantCols++
		}
		if labels[v] == labeling.VH {
			vh++
		}
	}
	if needConst0 {
		wantRows++
	}
	if wantCols == 0 {
		wantCols = 1
	}
	if err := invariant.GridDims(d.Rows, d.Cols, wantRows, wantCols); err != nil {
		return nil, fmt.Errorf("xbar: %w", err)
	}
	programmed := 0
	for _, row := range d.Cells {
		for _, e := range row {
			if e.Kind != Off {
				programmed++
			}
		}
	}
	if err := invariant.ProgrammedCells(programmed, bg.G.M(), vh); err != nil {
		return nil, fmt.Errorf("xbar: %w", err)
	}
	return d, nil
}
