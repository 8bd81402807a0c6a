package xbar3d

import (
	"encoding/json"
	"fmt"

	"compact/internal/xbar"
)

// The Design3D wire format (version 1)
//
// Layered designs marshal to a sparse JSON object, one cell record per
// non-Off device:
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
// "d" is the device plane (between wire layers d and d+1), "r"/"c" index
// the plane's layer-d/layer-d+1 wires, and "k"/"var"/"neg" follow the 2D
// cell encoding. UnmarshalJSON bounds every declared dimension through
// wirelimit before any allocation sized from it — layer count, per-layer
// widths, per-plane and whole-stack cell extents — so a few-byte body
// cannot drive the decoder out of memory (the repo's twice-shipped
// wire-OOM class), then validates every reference so a decoded design is
// structurally sound and Eval-able. The planes are sparse (xbar.Plane), so
// a decode allocates O(wires + cells), never one entry per crossing.

// design3DWireVersion is the current wire format version; UnmarshalJSON
// accepts exactly this value (or an absent field, treated as 1).
const design3DWireVersion = 1

// maxWireCells3D bounds the crossing count of a single device plane, the
// same cap as the 2D design decoder, and of a wire-decoded stack as a
// whole.
const maxWireCells3D = 1 << 31

type design3DJSON struct {
	Version     int          `json:"v"`
	Widths      []int        `json:"widths"`
	Input       WireRef      `json:"input"`
	Outputs     []WireRef    `json:"outputs"`
	OutputNames []string     `json:"output_names,omitempty"`
	VarNames    []string     `json:"var_names,omitempty"`
	Cells       []cell3DJSON `json:"cells"`
}

type cell3DJSON struct {
	D   int    `json:"d"`
	Row int    `json:"r"`
	Col int    `json:"c"`
	K   string `json:"k"`
	Var int32  `json:"var,omitempty"`
	Neg bool   `json:"neg,omitempty"`
}

// MarshalJSON encodes the design in the sparse wire format above.
func (d *Design3D) MarshalJSON() ([]byte, error) {
	dj := design3DJSON{
		Version:     design3DWireVersion,
		Widths:      d.Widths,
		Input:       d.Input,
		Outputs:     d.Outputs,
		OutputNames: d.OutputNames,
		VarNames:    d.VarNames,
		Cells:       []cell3DJSON{},
	}
	if dj.Widths == nil {
		dj.Widths = []int{}
	}
	if dj.Outputs == nil {
		dj.Outputs = []WireRef{}
	}
	for dl := range d.Cells {
		plane := &d.Cells[dl]
		for r := 0; r < plane.Rows(); r++ {
			cs, es := plane.Row(r)
			for i, c := range cs {
				switch e := es[i]; e.Kind {
				case xbar.Off: // a device cleared in place through Row
				case xbar.On:
					dj.Cells = append(dj.Cells, cell3DJSON{D: dl, Row: r, Col: c, K: "on"})
				case xbar.Lit:
					dj.Cells = append(dj.Cells, cell3DJSON{D: dl, Row: r, Col: c, K: "lit", Var: e.Var, Neg: e.Neg})
				default:
					return nil, fmt.Errorf("xbar3d: cell (%d,%d,%d) has unknown kind %d", dl, r, c, e.Kind)
				}
			}
		}
	}
	return json.Marshal(dj)
}

// UnmarshalJSON decodes and validates the sparse wire format. The decoded
// design is fully usable: Eval, Stats and verification all work on it.
// Unknown wire versions and any out-of-range reference are rejected.
func (d *Design3D) UnmarshalJSON(data []byte) error {
	var dj design3DJSON
	if err := json.Unmarshal(data, &dj); err != nil {
		return fmt.Errorf("xbar3d: decoding design: %w", err)
	}
	if dj.Version == 0 {
		dj.Version = design3DWireVersion
	}
	if dj.Version != design3DWireVersion {
		return fmt.Errorf("xbar3d: unsupported design wire version %d (want %d)", dj.Version, design3DWireVersion)
	}
	// Dimension discipline: the constructor bounds every wire-declared
	// size — layer count, each width, each plane's crossing count — before
	// the allocation sized from it; the decoder adds its own cap on the
	// stack's total crossing count, checked before any plane is built. The
	// widths are checked here first, so the cell loop below can index them.
	if err := checkWidths(dj.Widths, maxWireCells3D); err != nil {
		return err
	}
	devs := make([][]xbar.Device, len(dj.Widths)-1)
	for i, c := range dj.Cells {
		if c.D < 0 || c.D >= len(devs) {
			return fmt.Errorf("xbar3d: cell #%d on plane %d outside 0..%d", i, c.D, len(devs)-1)
		}
		if c.Row < 0 || c.Row >= dj.Widths[c.D] || c.Col < 0 || c.Col >= dj.Widths[c.D+1] {
			return fmt.Errorf("xbar3d: cell #%d at (%d,%d,%d) outside plane %dx%d",
				i, c.D, c.Row, c.Col, dj.Widths[c.D], dj.Widths[c.D+1])
		}
		dev := xbar.Device{Row: c.Row, Col: c.Col}
		switch c.K {
		case "on":
			dev.E = xbar.Entry{Kind: xbar.On}
		case "lit":
			if c.Var < 0 {
				return fmt.Errorf("xbar3d: cell #%d has negative variable %d", i, c.Var)
			}
			if len(dj.VarNames) > 0 && int(c.Var) >= len(dj.VarNames) {
				return fmt.Errorf("xbar3d: cell #%d references variable %d of %d", i, c.Var, len(dj.VarNames))
			}
			dev.E = xbar.Entry{Kind: xbar.Lit, Var: c.Var, Neg: c.Neg}
		default:
			return fmt.Errorf("xbar3d: cell #%d has unknown kind %q", i, c.K)
		}
		devs[c.D] = append(devs[c.D], dev)
	}
	nd, err := newDesign3D(dj.Widths, maxWireCells3D, devs)
	if err != nil {
		return err
	}
	nd.Input = dj.Input
	nd.Outputs = append([]WireRef(nil), dj.Outputs...)
	if err := nd.checkShape(); err != nil {
		return err
	}
	if len(dj.OutputNames) > 0 && len(dj.OutputNames) != len(dj.Outputs) {
		return fmt.Errorf("xbar3d: %d output names for %d outputs", len(dj.OutputNames), len(dj.Outputs))
	}
	nd.OutputNames = append([]string(nil), dj.OutputNames...)
	nd.VarNames = append([]string(nil), dj.VarNames...)
	d.Widths = nd.Widths
	d.Cells = nd.Cells
	d.Input = nd.Input
	d.Outputs = nd.Outputs
	d.OutputNames = nd.OutputNames
	d.VarNames = nd.VarNames
	d.wires.Store(nil) // drop any stale wire graph from a prior decode
	return nil
}
