package spice

import (
	"context"
	"fmt"

	"compact/internal/xbar3d"
)

// 3D nodal analysis
//
// A K-layer design is the same resistive network as a 2D one, just with
// more nanowire nodes: every wire of every layer is a node, and the device
// at plane cell (d, r, c) — including the always-ON via stitches that fold
// a wordline across layers — is a conductance between wire r of layer d
// and wire c of layer d+1. Off-state devices still conduct 1/R_off; a
// fabricated stack has a memristor at every crosspoint of every plane, so
// the sneak-path leakage budget grows with the stack's total device count,
// not its footprint. Vias reuse R_on: an On-programmed device in the low
// resistive state is the stitch, with no separate via model.
//
// The 3D path simulates clean stacks only — no defect maps, no placement.
// That restriction is deliberate: the layered placement story (per-plane
// fault maps, spare-line bridges that can span planes) has a logical model
// in xbar.Stack.Place but no electrical one yet, and a margin number that
// silently ignored the faults it was asked about would be worse than a
// typed refusal. Service layers map the layered-with-defects case to a
// typed unsupported error instead (DESIGN §15).

// compile3 validates the design's shape against the model and compiles
// one plane per device plane over the global wire numbering
// (xbar3d.Design3D.WireID): plane d joins the wires of layer d (rows) to
// those of layer d+1 (columns).
func compile3(d *xbar3d.Design3D, model DeviceModel) (*network, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	k := d.K()
	if k < 2 {
		return nil, fmt.Errorf("spice: %d wire layers (need >= 2)", k)
	}
	if len(d.Cells) != k-1 {
		return nil, fmt.Errorf("spice: %d device planes for %d wire layers", len(d.Cells), k)
	}
	for dl, plane := range d.Cells {
		if len(plane) != d.Widths[dl] {
			return nil, fmt.Errorf("spice: plane %d has %d rows, layer width is %d", dl, len(plane), d.Widths[dl])
		}
		for r, row := range plane {
			if len(row) != d.Widths[dl+1] {
				return nil, fmt.Errorf("spice: plane %d row %d has %d cols, layer width is %d", dl, r, len(row), d.Widths[dl+1])
			}
		}
	}
	checkRef := func(what string, ref xbar3d.WireRef) error {
		if ref.Layer < 0 || ref.Layer >= k {
			return fmt.Errorf("spice: %s wire layer %d outside 0..%d", what, ref.Layer, k-1)
		}
		if ref.Index < 0 || ref.Index >= d.Widths[ref.Layer] {
			return fmt.Errorf("spice: %s wire %d outside layer %d width %d", what, ref.Index, ref.Layer, d.Widths[ref.Layer])
		}
		return nil
	}
	if err := checkRef("input", d.Input); err != nil {
		return nil, err
	}
	nw := &network{model: model, n: d.NumWires(), input: d.WireID(d.Input), outputs: make([]int, len(d.Outputs))}
	for i, o := range d.Outputs {
		if err := checkRef(fmt.Sprintf("output #%d", i), o); err != nil {
			return nil, err
		}
		nw.outputs[i] = d.WireID(o)
	}
	if nw.n > maxNodes {
		return nil, fmt.Errorf("spice: %d nanowire nodes exceed the %d-node cap: %w", nw.n, maxNodes, ErrTooLarge)
	}
	base := 0
	for dl, cells := range d.Cells {
		nw.planes = append(nw.planes, plane{cells: cells, rowBase: base, colBase: base + d.Widths[dl]})
		base += d.Widths[dl]
	}
	nw.sample = func(v Variation, seed uint64) ([]*ResistanceMap, error) {
		return samplePlaneRes(d, model, v, seed)
	}
	return nw, nil
}

// Simulate3D computes the voltage on every output wire of the programmed
// K-layer stack under the given assignment, with nominal devices. The
// returned slice parallels d.Outputs. A 2-layer stack lifted from a 2D
// design (xbar3d.Lift3D) yields exactly the 2D Simulate voltages.
func Simulate3D(d *xbar3d.Design3D, assignment []bool, model DeviceModel) ([]float64, error) {
	nw, err := compile3(d, model)
	if err != nil {
		return nil, err
	}
	return nw.simulate(assignment, nil)
}

// Margin3DContext is MarginContext for clean K-layer stacks: exhaustive or
// sampled assignments, worst-case on/off voltages, anytime on expiry.
func Margin3DContext(ctx context.Context, d *xbar3d.Design3D, ref func([]bool) []bool, nVars, exhaustiveLimit, samples int, model DeviceModel, seed uint64) (MarginReport, error) {
	nw, err := compile3(d, model)
	if err != nil {
		return MarginReport{}, err
	}
	return nw.margin(ctx, ref, nVars, exhaustiveLimit, samples, seed)
}

// samplePlaneRes draws one concrete stack: an independent log-normal
// resistance map per device plane, plane seeds derived from the trial seed
// through the splitmix64 stream so no two (trial, plane) pairs share a
// stream. Zero-extent planes get a nil entry but still consume a seed, so
// their presence never shifts another plane's draw.
func samplePlaneRes(d *xbar3d.Design3D, base DeviceModel, v Variation, trialSeed uint64) ([]*ResistanceMap, error) {
	res := make([]*ResistanceMap, len(d.Cells))
	state := trialSeed
	for dl := range d.Cells {
		planeSeed := splitmix64(&state)
		rows, cols := d.Widths[dl], d.Widths[dl+1]
		if rows == 0 || cols == 0 {
			continue
		}
		m, err := SampleResistances(rows, cols, base, v, planeSeed)
		if err != nil {
			return nil, err
		}
		res[dl] = m
	}
	return res, nil
}

// MonteCarlo3DContext runs the per-device variation analysis of
// MonteCarloContext on a clean K-layer stack: every trial samples a full
// per-plane resistance draw, every trial checks the same shared vector
// set, and results merge in trial order under the same determinism and
// deadline contracts. Critical cells carry their device plane in Layer.
func MonteCarlo3DContext(ctx context.Context, d *xbar3d.Design3D, ref func([]bool) []bool, nVars int,
	base DeviceModel, v Variation, opts MonteCarloOptions) (MonteCarloReport, error) {
	return monteCarlo(ctx, func() (*network, error) { return compile3(d, base) }, ref, nVars, v, opts)
}
