package xbar

import (
	"encoding/json"
	"fmt"
	"math"
)

// The Design wire format (version 1)
//
// Designs marshal to a sparse JSON object listing the devices — the
// non-Off cells, the same lists the planes store — since crossbars are
// overwhelmingly empty (the largest bundled design has 109M crossings and
// 29k devices). The format has two bodies, one codec. A two-layer (2D)
// design is written in the crossbar body:
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
// and a stack of K >= 3 layers in the layered body:
//
//	{
//	  "v": 1,
//	  "widths": [4, 3, 2],
//	  "input": {"l": 0, "i": 3},
//	  "outputs": [{"l": 0, "i": 0}, {"l": 2, "i": 1}],
//	  "output_names": ["f", "g"],
//	  "var_names": ["a", "b"],
//	  "cells": [
//	    {"d": 0, "r": 0, "c": 1, "k": "on"},
//	    {"d": 1, "r": 2, "c": 0, "k": "lit", "var": 1, "neg": true}
//	  ]
//	}
//
// Cells appear in (plane, row, col) order; "d" is the device plane
// (between wire layers d and d+1), "r"/"c" index the plane's layer-d and
// layer-d+1 wires, "k" is "on" for statically conducting devices and
// "lit" for literal-programmed ones ("var" indexes var_names, "neg" marks
// a complemented literal). The decoder reads both bodies — a body with
// "widths" is layered, any other is a crossbar body, which is the stack
// [rows, cols] with every wire reference on layer 0 — so a two-layer
// layered body decodes too, and re-encodes as the equal crossbar body.
//
// UnmarshalJSON bounds every declared dimension through wirelimit before
// any allocation sized from it — layer count, per-layer widths, per-plane
// and whole-stack cell extents — so a few-byte body cannot drive the
// decoder out of memory, then validates every reference, so a decoded
// design is structurally sound and Eval-able or the decode fails with a
// descriptive error. The planes are sparse, so a decode allocates
// O(wires + cells), never one entry per crossing.

// designWireVersion is the current wire format version; UnmarshalJSON
// accepts exactly this value (or an absent field, treated as 1).
const designWireVersion = 1

// maxWireCells bounds the crossing count of a wire-decoded plane and of a
// wire-decoded stack as a whole: 1<<31, clamped to the largest int on
// 32-bit targets.
const maxWireCells = min(1<<31, math.MaxInt)

// crossbarJSON is the two-layer body.
type crossbarJSON struct {
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

// stackJSON is the layered body.
type stackJSON struct {
	Version     int             `json:"v"`
	Widths      []int           `json:"widths"`
	Input       WireRef         `json:"input"`
	Outputs     []WireRef       `json:"outputs"`
	OutputNames []string        `json:"output_names,omitempty"`
	VarNames    []string        `json:"var_names,omitempty"`
	Cells       []stackCellJSON `json:"cells"`
}

type stackCellJSON struct {
	D   int    `json:"d"`
	Row int    `json:"r"`
	Col int    `json:"c"`
	K   string `json:"k"`
	Var int32  `json:"var,omitempty"`
	Neg bool   `json:"neg,omitempty"`
}

// wireJSON is what the decoder reads: the union of both bodies.
type wireJSON struct {
	Version     int             `json:"v"`
	Rows        int             `json:"rows"`
	Cols        int             `json:"cols"`
	InputRow    int             `json:"input_row"`
	OutputRows  []int           `json:"output_rows"`
	Widths      []int           `json:"widths"`
	Input       WireRef         `json:"input"`
	Outputs     []WireRef       `json:"outputs"`
	OutputNames []string        `json:"output_names"`
	VarNames    []string        `json:"var_names"`
	Cells       []stackCellJSON `json:"cells"`
}

// MarshalJSON encodes the design in the body its layer count selects.
func (d *Design) MarshalJSON() ([]byte, error) {
	var cells []stackCellJSON
	for p := range d.Planes {
		plane := &d.Planes[p]
		for r := 0; r < plane.Rows(); r++ {
			cs, es := plane.Row(r)
			for i, c := range cs {
				switch e := es[i]; e.Kind {
				case Off: // a device cleared in place through Row
				case On:
					cells = append(cells, stackCellJSON{D: p, Row: r, Col: c, K: "on"})
				case Lit:
					cells = append(cells, stackCellJSON{D: p, Row: r, Col: c, K: "lit", Var: e.Var, Neg: e.Neg})
				default:
					return nil, fmt.Errorf("xbar: cell %s has unknown kind %d", d.cellName(p, r, c), e.Kind)
				}
			}
		}
	}
	if len(d.Widths) != 2 {
		sj := stackJSON{Version: designWireVersion, Widths: d.Widths, Input: d.Input, Outputs: d.Outputs,
			OutputNames: d.OutputNames, VarNames: d.VarNames, Cells: cells}
		if sj.Widths == nil {
			sj.Widths = []int{}
		}
		if sj.Outputs == nil {
			sj.Outputs = []WireRef{}
		}
		if sj.Cells == nil {
			sj.Cells = []stackCellJSON{}
		}
		return json.Marshal(sj)
	}
	cj := crossbarJSON{Version: designWireVersion, Rows: d.Widths[0], Cols: d.Widths[1], InputRow: d.Input.Index,
		OutputRows: []int{}, OutputNames: d.OutputNames, VarNames: d.VarNames, Cells: make([]cellJSON, len(cells))}
	for _, ref := range append([]WireRef{d.Input}, d.Outputs...) {
		if ref.Layer != 0 {
			return nil, fmt.Errorf("xbar: a 2D design senses and drives layer 0 only, not layer %d", ref.Layer)
		}
	}
	for _, o := range d.Outputs {
		cj.OutputRows = append(cj.OutputRows, o.Index)
	}
	for i, c := range cells {
		cj.Cells[i] = cellJSON{Row: c.Row, Col: c.Col, K: c.K, Var: c.Var, Neg: c.Neg}
	}
	return json.Marshal(cj)
}

// UnmarshalJSON decodes and validates either body. The decoded design is
// fully usable: Eval, Render, Stats and verification all work on it.
// Unknown wire versions and any out-of-range reference are rejected.
func (d *Design) UnmarshalJSON(data []byte) error {
	var dj wireJSON
	if err := json.Unmarshal(data, &dj); err != nil {
		return fmt.Errorf("xbar: decoding design: %w", err)
	}
	if dj.Version == 0 {
		dj.Version = designWireVersion
	}
	if dj.Version != designWireVersion {
		return fmt.Errorf("xbar: unsupported design wire version %d (want %d)", dj.Version, designWireVersion)
	}
	if dj.Widths == nil {
		// The crossbar body: the two-layer stack, sensed and driven on
		// layer 0. Its cells carry no plane.
		dj.Widths = []int{dj.Rows, dj.Cols}
		dj.Input = WireRef{Index: dj.InputRow}
		dj.Outputs = make([]WireRef, len(dj.OutputRows))
		for i, r := range dj.OutputRows {
			dj.Outputs[i] = WireRef{Index: r}
		}
		for i := range dj.Cells {
			dj.Cells[i].D = 0
		}
	}
	planes := len(dj.Widths) - 1
	devs := make([][]Device, max(planes, 0))
	for i, c := range dj.Cells {
		if c.D < 0 || c.D >= planes {
			return fmt.Errorf("xbar: cell #%d on plane %d outside 0..%d", i, c.D, planes-1)
		}
		dev := Device{Row: c.Row, Col: c.Col} // NewPlane checks the coordinates
		switch c.K {
		case "on":
			dev.E = Entry{Kind: On}
		case "lit":
			if c.Var < 0 {
				return fmt.Errorf("xbar: cell #%d has negative variable %d", i, c.Var)
			}
			if len(dj.VarNames) > 0 && int(c.Var) >= len(dj.VarNames) {
				return fmt.Errorf("xbar: cell #%d references variable %d of %d", i, c.Var, len(dj.VarNames))
			}
			dev.E = Entry{Kind: Lit, Var: c.Var, Neg: c.Neg}
		default:
			return fmt.Errorf("xbar: cell #%d has unknown kind %q", i, c.K)
		}
		devs[c.D] = append(devs[c.D], dev)
	}
	// The constructor bounds the layer count, every width, each plane's
	// crossing count and the stack's total before it allocates a plane.
	nd, err := newDesign(dj.Widths, maxWireCells, devs)
	if err != nil {
		return err
	}
	nd.Input = dj.Input
	nd.Outputs = append([]WireRef(nil), dj.Outputs...)
	if err := nd.checkShape(); err != nil {
		return err
	}
	if len(dj.OutputNames) > 0 && len(dj.OutputNames) != len(dj.Outputs) {
		return fmt.Errorf("xbar: %d output names for %d outputs", len(dj.OutputNames), len(dj.Outputs))
	}
	d.Rows, d.Cols = nd.Rows, nd.Cols
	d.Widths = nd.Widths
	d.Planes = nd.Planes
	d.Input = nd.Input
	d.Outputs = nd.Outputs
	d.OutputNames = append([]string(nil), dj.OutputNames...)
	d.VarNames = append([]string(nil), dj.VarNames...)
	d.wires.Store(nil) // drop any stale wire graph from a prior decode
	return nil
}
