package xbar3d

import (
	"compact/internal/labeling"
	"compact/internal/xbar"
)

// Map3D performs the K-layer crossbar mapping step: xbar.MapStack on the
// solution's layer intervals. Its wire order generalizes xbar.Map's, so a
// K=2 mapping is cell-for-cell the 2D design (the equivalence suite in
// internal/core pins this).
func Map3D(bg *xbar.BDDGraph, sol *labeling.KSolution) (*Design3D, error) {
	m, err := xbar.MapStack(bg, sol.K, sol.Lo, sol.Hi)
	if err != nil {
		return nil, err
	}
	return &Design3D{Widths: m.Widths, Cells: m.Planes, Input: m.Input, Outputs: m.Outputs,
		OutputNames: m.OutputNames, VarNames: bg.VarNames}, nil
}

// Lift3D embeds a 2D design as the equivalent 2-layer Design3D: layer 0
// carries the wordlines (rows), layer 1 the bitlines (cols), and device
// plane 0 is the 2D cell matrix verbatim. The lifted design evaluates
// identically; the K=2 equivalence suite compares Map3D output against it
// cell for cell.
func Lift3D(src *xbar.Design) (*Design3D, error) {
	cols := src.Cols
	if cols == 0 {
		cols = 1
	}
	d, err := NewDesign3D([]int{src.Rows, cols}, src.Cells.Devices())
	if err != nil {
		return nil, err
	}
	d.Input = WireRef{Layer: 0, Index: src.InputRow}
	for _, r := range src.OutputRows {
		d.Outputs = append(d.Outputs, WireRef{Layer: 0, Index: r})
	}
	d.OutputNames = append([]string(nil), src.OutputNames...)
	d.VarNames = append([]string(nil), src.VarNames...)
	return d, nil
}
