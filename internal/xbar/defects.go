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

// inversePerm maps physical wire -> logical wire (-1 where unused).
func inversePerm(perm []int, bound int) []int {
	inv := make([]int, bound)
	for i := range inv {
		inv[i] = -1
	}
	for logical, physical := range perm {
		inv[physical] = logical
	}
	return inv
}

// UnderDefects returns the effective planes the physical stack computes:
// a deep copy of the stack's planes, placed by perms (one permutation per
// layer; identity when nil), with every cell that lands on a stuck device
// overridden by the stuck behavior (stuck-ON → On, stuck-OFF → Off).
// Faults on physical wires the placement leaves unused are ignored —
// unused spares are disconnected.
func (s Stack) UnderDefects(perms [][]int) ([][][]Entry, error) {
	p, err := newPlacer(s)
	if err != nil {
		return nil, err
	}
	if perms == nil {
		perms = p.identity()
	}
	if len(perms) != len(s.Widths) {
		return nil, fmt.Errorf("xbar: placement has %d layer permutations for %d layers", len(perms), len(s.Widths))
	}
	for l, perm := range perms {
		if len(perm) != s.Widths[l] {
			return nil, fmt.Errorf("xbar: layer %d placement maps %d wires, design has %d", l, len(perm), s.Widths[l])
		}
		if err := checkInjective(perm, p.phys[l], l); err != nil {
			return nil, err
		}
	}
	planes := make([][][]Entry, len(s.Planes))
	for pl, plane := range s.Planes {
		planes[pl] = make([][]Entry, len(plane))
		for r, row := range plane {
			planes[pl][r] = append([]Entry(nil), row...)
		}
		if len(p.faults[pl]) == 0 {
			continue
		}
		invRow := inversePerm(perms[pl], p.phys[pl])
		invCol := inversePerm(perms[pl+1], p.phys[pl+1])
		for _, fc := range p.faults[pl] {
			r, c := invRow[fc.Row], invCol[fc.Col]
			if r < 0 || c < 0 {
				continue // crossing on an unused (disconnected) physical wire
			}
			switch fc.Kind {
			case defect.StuckOn:
				planes[pl][r][c] = Entry{Kind: On}
			case defect.StuckOff:
				planes[pl][r][c] = Entry{Kind: Off}
			}
		}
	}
	return planes, nil
}

// UnderDefects returns the effective design the physical array computes:
// d placed by pl (identity when nil) onto dm, as Stack.UnderDefects. The
// result is a deep copy; the receiver is unchanged.
func (d *Design) UnderDefects(dm *defect.Map, pl *Placement) (*Design, error) {
	var perms [][]int
	if pl != nil {
		perms = [][]int{pl.RowPerm, pl.ColPerm}
	}
	planes, err := d.Stack(dm).UnderDefects(perms)
	if err != nil {
		return nil, err
	}
	return &Design{
		Rows: d.Rows, Cols: d.Cols, Cells: planes[0], InputRow: d.InputRow,
		OutputRows:  append([]int(nil), d.OutputRows...),
		OutputNames: append([]string(nil), d.OutputNames...),
		VarNames:    append([]string(nil), d.VarNames...),
	}, nil
}
