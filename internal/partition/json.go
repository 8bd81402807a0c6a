package partition

import (
	"encoding/json"
	"fmt"

	"compact/internal/defect"
	"compact/internal/wirelimit"
	"compact/internal/xbar"
)

// The Plan wire format (version 1)
//
//	{
//	  "v": 1,
//	  "name": "cavlc",
//	  "fingerprint": "sha256:…",
//	  "inputs": ["a", "b", …],
//	  "outputs": [{"name": "f0", "net": "cut$3"}, …],
//	  "tiles": [
//	    {
//	      "name": "t0",
//	      "inputs": ["a", "b"],            // net per design variable
//	      "outputs": ["cut$0"],            // net per sensed output row
//	      "design": { xbar.Design wire v1 },
//	      "placement": {"engine": "greedy", "row_perm": […], "col_perm": […]},
//	      "defects": { defect.Map wire v1 },
//	      "repair_attempts": 1
//	    }, …
//	  ]
//	}
//
// placement, defects and repair_attempts are present only for plans
// synthesized against a defective array. UnmarshalJSON validates the
// version, every tile design (via xbar.Design's own validated decode),
// placement shape, and finally the plan-level invariants (Plan.Validate:
// topological net order, single drivers, binding widths), so a decoded
// plan is structurally safe to evaluate.

// planWireVersion is the current Plan wire format version.
const planWireVersion = 1

type planWire struct {
	V           int         `json:"v"`
	Name        string      `json:"name,omitempty"`
	Fingerprint string      `json:"fingerprint,omitempty"`
	Inputs      []string    `json:"inputs"`
	Outputs     []OutputRef `json:"outputs"`
	Tiles       []tileWire  `json:"tiles"`
}

type tileWire struct {
	Name    string   `json:"name"`
	Inputs  []string `json:"inputs"`
	Outputs []string `json:"outputs"`
	// Design stays raw until its dimensions have been sanity-checked:
	// xbar's decoder allocates rows x cols cells up front, and a plan
	// must reject absurd tile claims before paying that.
	Design         json.RawMessage `json:"design"`
	Placement      *placementWire  `json:"placement,omitempty"`
	Defects        *defect.Map     `json:"defects,omitempty"`
	RepairAttempts int             `json:"repair_attempts,omitempty"`
}

// maxTileCells bounds a decoded tile design's dense cell count. Tiles are
// small by construction (they exist because of per-tile row/column caps),
// so anything near this bound is a hostile or corrupt document, not a
// plan the builder could have emitted.
const maxTileCells = 1 << 24

type placementWire struct {
	Engine  string `json:"engine"`
	RowPerm []int  `json:"row_perm"`
	ColPerm []int  `json:"col_perm"`
}

// MarshalJSON encodes the plan in the wire format above. The encoding is
// deterministic (tiles in cascade order, cells row-major via the design
// encoder), which is what makes Plan.Digest a content hash.
func (p *Plan) MarshalJSON() ([]byte, error) {
	w := planWire{
		V:           planWireVersion,
		Name:        p.Name,
		Fingerprint: p.Fingerprint,
		Inputs:      p.Inputs,
		Outputs:     p.Outputs,
		Tiles:       make([]tileWire, len(p.Tiles)),
	}
	if w.Inputs == nil {
		w.Inputs = []string{}
	}
	if w.Outputs == nil {
		w.Outputs = []OutputRef{}
	}
	for i := range p.Tiles {
		t := &p.Tiles[i]
		if t.Design == nil {
			return nil, fmt.Errorf("partition: tile %d (%s) has no design", i, t.Name)
		}
		dd, err := json.Marshal(t.Design)
		if err != nil {
			return nil, fmt.Errorf("partition: encoding tile %d (%s) design: %w", i, t.Name, err)
		}
		tw := tileWire{
			Name:           t.Name,
			Inputs:         t.Inputs,
			Outputs:        t.Outputs,
			Design:         dd,
			Defects:        t.Defects,
			RepairAttempts: t.RepairAttempts,
		}
		if tw.Inputs == nil {
			tw.Inputs = []string{}
		}
		if tw.Outputs == nil {
			tw.Outputs = []string{}
		}
		if pl := t.Placement; pl != nil {
			if len(pl.Perms) != 2 {
				return nil, fmt.Errorf("partition: tile %d (%s) placement binds %d layers, not a 2D tile's 2", i, t.Name, len(pl.Perms))
			}
			tw.Placement = &placementWire{Engine: pl.Engine, RowPerm: pl.Perms[0], ColPerm: pl.Perms[1]}
		}
		w.Tiles[i] = tw
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes and validates the wire format. The decoded plan
// satisfies Plan.Validate, every tile design passed xbar's validated
// decode, and placements (when present) have permutation shape — so the
// plan is safe to Eval without further checks.
func (p *Plan) UnmarshalJSON(data []byte) error {
	var w planWire
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("partition: decoding plan: %w", err)
	}
	if w.V != planWireVersion {
		return fmt.Errorf("partition: unsupported plan wire version %d (want %d)", w.V, planWireVersion)
	}
	np := Plan{
		Name:        w.Name,
		Fingerprint: w.Fingerprint,
		Inputs:      w.Inputs,
		Outputs:     w.Outputs,
		Tiles:       make([]Tile, len(w.Tiles)),
	}
	for i := range w.Tiles {
		tw := &w.Tiles[i]
		if len(tw.Design) == 0 || string(tw.Design) == "null" {
			return fmt.Errorf("partition: tile %d (%s) has no design", i, tw.Name)
		}
		// Peek the claimed dimensions before the full (allocating) decode.
		var dims struct {
			Rows int `json:"rows"`
			Cols int `json:"cols"`
		}
		if err := json.Unmarshal(tw.Design, &dims); err != nil {
			return fmt.Errorf("partition: tile %d (%s) design: %w", i, tw.Name, err)
		}
		if err := wirelimit.CheckCells("tile design", dims.Rows, dims.Cols, maxTileCells); err != nil {
			return fmt.Errorf("partition: tile %d (%s) claims an implausible %dx%d design: %v",
				i, tw.Name, dims.Rows, dims.Cols, err)
		}
		d := new(xbar.Design)
		if err := json.Unmarshal(tw.Design, d); err != nil {
			return fmt.Errorf("partition: tile %d (%s) design: %w", i, tw.Name, err)
		}
		if d.K() != 2 {
			return fmt.Errorf("partition: tile %d (%s) design is a %d-layer stack; tiles are 2D crossbars", i, tw.Name, d.K())
		}
		t := Tile{
			Name:           tw.Name,
			Inputs:         tw.Inputs,
			Outputs:        tw.Outputs,
			Design:         d,
			Defects:        tw.Defects,
			RepairAttempts: tw.RepairAttempts,
		}
		if pw := tw.Placement; pw != nil {
			if err := validatePerm(pw.RowPerm, d.Rows); err != nil {
				return fmt.Errorf("partition: tile %d (%s) placement rows: %w", i, tw.Name, err)
			}
			if err := validatePerm(pw.ColPerm, d.Cols); err != nil {
				return fmt.Errorf("partition: tile %d (%s) placement cols: %w", i, tw.Name, err)
			}
			t.Placement = &xbar.Placement{Engine: pw.Engine, Perms: [][]int{pw.RowPerm, pw.ColPerm}}
		}
		if err := wirelimit.CheckCount("repair_attempts", tw.RepairAttempts, 0); err != nil {
			return fmt.Errorf("partition: tile %d (%s): %v", i, tw.Name, err)
		}
		np.Tiles[i] = t
	}
	if err := np.Validate(); err != nil {
		return err
	}
	*p = np
	return nil
}

// validatePerm checks that perm binds n logical lines to distinct physical
// lines within the shared wirelimit dimension cap. It is registered as an
// allocbound sanitizer: a permutation that passed it is bounded.
func validatePerm(perm []int, n int) error {
	if len(perm) != n {
		return fmt.Errorf("binds %d lines, design has %d", len(perm), n)
	}
	seen := make(map[int]bool, len(perm))
	for i, ph := range perm {
		if err := wirelimit.CheckDim("physical line", ph); err != nil {
			return fmt.Errorf("logical line %d: %v", i, err)
		}
		if seen[ph] {
			return fmt.Errorf("physical line %d bound twice", ph)
		}
		seen[ph] = true
	}
	return nil
}
