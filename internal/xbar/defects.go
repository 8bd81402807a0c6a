package xbar

import (
	"fmt"

	"compact/internal/defect"
)

// Defect-aware evaluation
//
// A defect.Map describes the physical plane a logical device plane is
// placed onto: stuck-ON devices always conduct, stuck-OFF devices never
// do. A placement (see place.go) chooses which physical wire each logical
// wire of each layer occupies; physical wires left unused are assumed
// electrically disconnected (floating spares), so faults on them cannot
// create sneak paths. Under those semantics the placed stack computes
// exactly the function of the logical design with each defective crossing
// overridden by its stuck behavior — which is what UnderDefects
// materializes, making every existing evaluator (Eval, VerifyEquiv,
// FormalVerify) defect-aware for free.

// checkInjective verifies that layer l's perm maps injectively into
// 0..bound-1.
func checkInjective(perm []int, bound, l int) error {
	seen := make(map[int]bool, len(perm))
	for i, p := range perm {
		if p < 0 || p >= bound {
			return fmt.Errorf("xbar: layer %d placement maps wire %d to %d, outside 0..%d", l, i, p, bound-1)
		}
		if seen[p] {
			return fmt.Errorf("xbar: layer %d placement maps two wires to physical wire %d", l, p)
		}
		seen[p] = true
	}
	return nil
}

// UnderDefects returns the effective planes the physical stack computes:
// a deep copy of the stack's planes, placed by perms (one permutation per
// layer; identity when nil), with every cell that lands on a stuck device
// overridden by the stuck behavior (stuck-ON → On, stuck-OFF → Off).
// Faults on physical wires the placement leaves unused are ignored —
// unused spares are disconnected.
func (s Stack) UnderDefects(perms [][]int) ([]Plane, error) {
	phys, perms, err := s.Bind(perms)
	if err != nil {
		return nil, err
	}
	if s.Maps == nil {
		s.Maps = make([]*defect.Map, len(s.Planes))
	}
	planes := make([]Plane, len(s.Planes))
	for pl := range s.Planes {
		var stuck []Device
		if faults := s.Maps[pl].Cells(); len(faults) > 0 {
			invRow := invert(make([]int, phys[pl]), perms[pl])
			invCol := invert(make([]int, phys[pl+1]), perms[pl+1])
			for _, fc := range faults {
				r, c := invRow[fc.Row], invCol[fc.Col]
				if r < 0 || c < 0 {
					continue // crossing on an unused (disconnected) physical wire
				}
				e := Entry{Kind: Off}
				if fc.Kind == defect.StuckOn {
					e = Entry{Kind: On}
				}
				stuck = append(stuck, Device{Row: r, Col: c, E: e})
			}
		}
		planes[pl] = s.Planes[pl].With(stuck)
	}
	return planes, nil
}

// UnderDefects returns the effective design the physical array computes:
// d placed by pl (identity when nil) onto the planes maps describes (one
// map per device plane, nil for a fault-free plane), as
// Stack.UnderDefects. The result is a deep copy; the receiver is
// unchanged.
func (d *Design) UnderDefects(maps []*defect.Map, pl *Placement) (*Design, error) {
	var perms [][]int
	if pl != nil {
		perms = pl.Perms
	}
	planes, err := d.Stack(maps).UnderDefects(perms)
	if err != nil {
		return nil, err
	}
	return d.withPlanes(planes), nil
}

// Clone deep-copies the design (the compiled wire graph is not shared).
func (d *Design) Clone() *Design {
	planes := make([]Plane, len(d.Planes))
	for p := range d.Planes {
		planes[p] = d.Planes[p].With(nil)
	}
	return d.withPlanes(planes)
}

// withPlanes copies the design around the given planes.
func (d *Design) withPlanes(planes []Plane) *Design {
	return &Design{Rows: d.Rows, Cols: d.Cols, Widths: append([]int(nil), d.Widths...), Planes: planes,
		Input:       d.Input,
		Outputs:     append([]WireRef(nil), d.Outputs...),
		OutputNames: append([]string(nil), d.OutputNames...),
		VarNames:    append([]string(nil), d.VarNames...),
	}
}
