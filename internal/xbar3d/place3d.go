package xbar3d

import (
	"compact/internal/defect"
	"compact/internal/xbar"
)

// Defect-aware layered placement
//
// A layered physical array carries one defect.Map per device plane (plane
// p's map is physWidth(p) x physWidth(p+1)). The search is xbar's single
// placement engine: a Design3D is the stack {Widths, Cells, maps}, placed
// by xbar.Stack.Place exactly as a 2D design is (the K=2 case).

// Placement3D binds each logical wire of each layer to a physical wire.
type Placement3D struct {
	// Perms[l][i] is the physical wire carrying logical wire i of layer l;
	// each Perms[l] is injective into the layer's physical width.
	Perms [][]int
	// Engine records the search stage: "identity", "greedy" or "ilp".
	Engine string
}

// Unplaceable3D is the layered name of the engine's refusal.
type Unplaceable3D = xbar.Unplaceable

// Stack returns d as the placement engine's plane stack on maps.
func (d *Design3D) Stack(maps []*defect.Map) xbar.Stack {
	return xbar.Stack{Widths: d.Widths, Planes: d.Cells, Maps: maps}
}

// UnderDefects3D returns the effective design the layered physical array
// computes: d placed by pl (identity when nil) onto the planes described
// by maps, as xbar.Stack.UnderDefects. The result is a deep copy.
func (d *Design3D) UnderDefects3D(maps []*defect.Map, pl *Placement3D) (*Design3D, error) {
	var perms [][]int
	if pl != nil {
		perms = pl.Perms
	}
	planes, err := d.Stack(maps).UnderDefects(perms)
	if err != nil {
		return nil, err
	}
	return &Design3D{
		Widths: append([]int(nil), d.Widths...), Cells: planes, Input: d.Input,
		Outputs:     append([]WireRef(nil), d.Outputs...),
		OutputNames: append([]string(nil), d.OutputNames...),
		VarNames:    append([]string(nil), d.VarNames...),
	}, nil
}
