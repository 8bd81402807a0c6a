package xbar

import (
	"encoding/json"
	"fmt"

	"compact/internal/wirelimit"
)

// The Design wire format (version 1)
//
// Designs marshal to a sparse JSON object listing the plane's devices —
// the non-Off cells, the same list a Plane stores — since crossbars are
// overwhelmingly empty (the largest bundled design has 109M crossings and
// 29k devices):
//
//	{
//	  "v": 1,
//	  "rows": 5, "cols": 4,
//	  "input_row": 4,
//	  "output_rows": [0, 1],
//	  "output_names": ["f", "g"],
//	  "var_names": ["a", "b", "c"],
//	  "cells": [
//	    {"r": 0, "c": 1, "k": "on"},
//	    {"r": 2, "c": 0, "k": "lit", "var": 2},
//	    {"r": 3, "c": 2, "k": "lit", "var": 0, "neg": true}
//	  ]
//	}
//
// Cells appear in row-major order; "k" is "on" for statically conducting
// devices and "lit" for literal-programmed ones ("var" indexes var_names,
// "neg" marks a complemented literal). UnmarshalJSON validates every
// reference — dimensions, cell coordinates, duplicate cells, variable and
// row indices — so a decoded design is structurally sound and Eval-able,
// or the decode fails with a descriptive error.

// designWireVersion is the current wire format version; UnmarshalJSON
// accepts exactly this value (or an absent field, treated as 1).
const designWireVersion = 1

type designJSON struct {
	Version     int        `json:"v"`
	Rows        int        `json:"rows"`
	Cols        int        `json:"cols"`
	InputRow    int        `json:"input_row"`
	OutputRows  []int      `json:"output_rows"`
	OutputNames []string   `json:"output_names,omitempty"`
	VarNames    []string   `json:"var_names,omitempty"`
	Cells       []cellJSON `json:"cells"`
}

type cellJSON struct {
	Row int    `json:"r"`
	Col int    `json:"c"`
	K   string `json:"k"`
	Var int32  `json:"var,omitempty"`
	Neg bool   `json:"neg,omitempty"`
}

// MarshalJSON encodes the design in the sparse wire format above.
func (d *Design) MarshalJSON() ([]byte, error) {
	dj := designJSON{
		Version:     designWireVersion,
		Rows:        d.Rows,
		Cols:        d.Cols,
		InputRow:    d.InputRow,
		OutputRows:  d.OutputRows,
		OutputNames: d.OutputNames,
		VarNames:    d.VarNames,
		Cells:       []cellJSON{},
	}
	if dj.OutputRows == nil {
		dj.OutputRows = []int{}
	}
	for r := 0; r < d.Cells.Rows(); r++ {
		cs, es := d.Cells.Row(r)
		for i, c := range cs {
			switch e := es[i]; e.Kind {
			case Off: // a device cleared in place through Row
			case On:
				dj.Cells = append(dj.Cells, cellJSON{Row: r, Col: c, K: "on"})
			case Lit:
				dj.Cells = append(dj.Cells, cellJSON{Row: r, Col: c, K: "lit", Var: e.Var, Neg: e.Neg})
			default:
				return nil, fmt.Errorf("xbar: cell (%d,%d) has unknown kind %d", r, c, e.Kind)
			}
		}
	}
	return json.Marshal(dj)
}

// UnmarshalJSON decodes and validates the sparse wire format. The decoded
// design is fully usable: Eval, Render, Stats and verification all work on
// it. Unknown wire versions and any out-of-range reference are rejected.
func (d *Design) UnmarshalJSON(data []byte) error {
	var dj designJSON
	if err := json.Unmarshal(data, &dj); err != nil {
		return fmt.Errorf("xbar: decoding design: %w", err)
	}
	if dj.Version == 0 {
		dj.Version = designWireVersion
	}
	if dj.Version != designWireVersion {
		return fmt.Errorf("xbar: unsupported design wire version %d (want %d)", dj.Version, designWireVersion)
	}
	// Both dimensions are capped individually before the product check:
	// the old product-only guard had a hole (a huge row count with zero
	// columns passed it, and the dense grid's per-row slices OOMed). The
	// plane itself is sparse, so decoding allocates O(rows + cells).
	const maxWireCells = 1 << 31
	if err := wirelimit.CheckCells("design", dj.Rows, dj.Cols, maxWireCells); err != nil {
		return fmt.Errorf("xbar: %v", err)
	}
	if dj.Rows > 0 && (dj.InputRow < 0 || dj.InputRow >= dj.Rows) {
		return fmt.Errorf("xbar: input row %d outside 0..%d", dj.InputRow, dj.Rows-1)
	}
	for i, r := range dj.OutputRows {
		if r < 0 || r >= dj.Rows {
			return fmt.Errorf("xbar: output row %d (#%d) outside 0..%d", r, i, dj.Rows-1)
		}
	}
	if len(dj.OutputNames) > 0 && len(dj.OutputNames) != len(dj.OutputRows) {
		return fmt.Errorf("xbar: %d output names for %d output rows", len(dj.OutputNames), len(dj.OutputRows))
	}
	devs := make([]Device, len(dj.Cells))
	for i, c := range dj.Cells {
		devs[i] = Device{Row: c.Row, Col: c.Col} // NewDesign checks the coordinates
		switch c.K {
		case "on":
			devs[i].E = Entry{Kind: On}
		case "lit":
			if c.Var < 0 {
				return fmt.Errorf("xbar: cell #%d has negative variable %d", i, c.Var)
			}
			if len(dj.VarNames) > 0 && int(c.Var) >= len(dj.VarNames) {
				return fmt.Errorf("xbar: cell #%d references variable %d of %d", i, c.Var, len(dj.VarNames))
			}
			devs[i].E = Entry{Kind: Lit, Var: c.Var, Neg: c.Neg}
		default:
			return fmt.Errorf("xbar: cell #%d has unknown kind %q", i, c.K)
		}
	}
	nd, err := NewDesign(dj.Rows, dj.Cols, devs)
	if err != nil {
		return err
	}
	nd.InputRow = dj.InputRow
	nd.OutputRows = append([]int(nil), dj.OutputRows...)
	nd.OutputNames = append([]string(nil), dj.OutputNames...)
	nd.VarNames = append([]string(nil), dj.VarNames...)
	d.Rows, d.Cols = nd.Rows, nd.Cols
	d.Cells = nd.Cells
	d.InputRow = nd.InputRow
	d.OutputRows = nd.OutputRows
	d.OutputNames = nd.OutputNames
	d.VarNames = nd.VarNames
	d.wires.Store(nil) // drop any stale wire graph from a prior decode
	return nil
}
