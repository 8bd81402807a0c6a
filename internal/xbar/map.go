package xbar

import (
	"fmt"

	"compact/internal/invariant"
	"compact/internal/labeling"
)

// WireRef addresses one nanowire of a layer stack: wire Index of wire
// layer Layer. A 2D design's wordline r is {0, r} and its bitline c is
// {1, c}.
type WireRef struct {
	Layer int `json:"l"`
	Index int `json:"i"`
}

// Map performs the paper's crossbar mapping step (Section V-C) on a
// VH-labeling; it is MapStack's K=2 case. H-labeled nodes are bound to
// wordlines, V-labeled nodes to bitlines, VH nodes to both with a
// statically-on memristor stitching the two, and every graph edge becomes
// a memristor programmed with its literal.
//
// Wordline order follows the alignment convention: output roots top-most,
// interior wordlines in between, and the 1-terminal (input port) as the
// bottom-most wordline. A labeling produced with alignment disabled is
// still mappable as long as it is valid; output rows then land wherever
// their nodes were bound (roots labeled V-only are rejected — callers
// wanting sensable outputs must label with alignment).
func Map(bg *BDDGraph, labels []labeling.Label) (*Design, error) {
	lo, hi := labeling.LiftLabels(labels)
	return MapStack(bg, 2, lo, hi)
}

// MapStack is the one crossbar mapping implementation: node v is bound to
// one wire on each layer of its interval [lo[v], hi[v]], a node spanning
// layers l and l+1 gets a statically-on via stitch on plane l, and every
// graph edge becomes a memristor on the lowest device plane where its
// endpoints sit on adjacent layers.
//
// On each even (wordline) layer the wire order is a const-0 wire (layer 0
// only, when a constant-false output exists), then the output roots whose
// lowest even layer is this one in output order, then the remaining
// occupants in node order, with the 1-terminal (input port) last on its
// lowest even layer; odd (bitline) layers order occupants by node id. A
// layer nothing occupies is padded to one wire. Output roots and the
// 1-terminal must reach an even layer, where the periphery can sense and
// drive them. Outputs follow BDDGraph.Roots order.
func MapStack(bg *BDDGraph, k int, lo, hi []int) (*Design, error) {
	if err := labeling.Validate(bg.Problem(false), k, lo, hi); err != nil {
		return nil, fmt.Errorf("xbar: %w", err)
	}
	n := bg.G.N()
	lowestEven := func(v int) int {
		for l := lo[v]; l <= hi[v]; l++ {
			if l%2 == 0 {
				return l
			}
		}
		return -1
	}
	needConst0 := false
	for _, r := range bg.Roots {
		switch {
		case r.Kind == RootConst0:
			needConst0 = true
		case r.Kind == RootNode && lowestEven(r.NodeID) < 0:
			return nil, fmt.Errorf("xbar: output %q root occupies no wordline layer (interval [%d,%d]); outputs must lie on wordlines",
				r.Name, lo[r.NodeID], hi[r.NodeID])
		}
	}
	inputLayer := lowestEven(bg.TerminalID)
	if inputLayer < 0 {
		return nil, fmt.Errorf("xbar: 1-terminal occupies no wordline layer (interval [%d,%d]); the input port must lie on a wordline",
			lo[bg.TerminalID], hi[bg.TerminalID])
	}

	// idx[l][v] is node v's wire index on layer l (-1 when absent).
	idx := make([][]int, k)
	widths := make([]int, k)
	const0Index := -1
	for l := range idx {
		idx[l] = make([]int, n)
		for v := range idx[l] {
			idx[l][v] = -1
		}
		next := 0
		if l%2 == 0 {
			if l == 0 && needConst0 {
				const0Index = next
				next++
			}
			for _, r := range bg.Roots {
				if r.Kind == RootNode && r.NodeID != bg.TerminalID &&
					lowestEven(r.NodeID) == l && idx[l][r.NodeID] < 0 {
					idx[l][r.NodeID] = next
					next++
				}
			}
		}
		for v := 0; v < n; v++ {
			if idx[l][v] < 0 && labeling.Occupies(lo[v], hi[v], l) && !(v == bg.TerminalID && l == inputLayer) {
				idx[l][v] = next
				next++
			}
		}
		if l == inputLayer {
			idx[l][bg.TerminalID] = next
			next++
		}
		widths[l] = max(next, 1)
	}

	// Via stitches: a node spanning layers l and l+1 joins its two wires
	// with a statically-on device on plane l (at K=2, the VH stitch).
	devs := make([][]Device, k-1)
	stitches := 0
	for v := 0; v < n; v++ {
		for l := lo[v]; l < hi[v]; l++ {
			devs[l] = append(devs[l], Device{Row: idx[l][v], Col: idx[l+1][v], E: Entry{Kind: On}})
			stitches++
		}
	}
	// Edge assignment: lowest device plane first, preferring the
	// (e[0] on layer p, e[1] on layer p+1) orientation — at K=2, "u on the
	// wordline, v on the bitline".
	for _, e := range bg.G.Edges() {
		u, v := e[0], e[1]
		placed := false
		for p := 0; p < k-1 && !placed; p++ {
			var r, c int
			switch {
			case idx[p][u] >= 0 && idx[p+1][v] >= 0:
				r, c = idx[p][u], idx[p+1][v]
			case idx[p][v] >= 0 && idx[p+1][u] >= 0:
				r, c = idx[p][v], idx[p+1][u]
			default:
				continue
			}
			devs[p] = append(devs[p], Device{Row: r, Col: c, E: bg.EdgeLit[edgeKey(u, v)]})
			placed = true
		}
		if !placed {
			return nil, fmt.Errorf("xbar: edge (%d,%d) has no free adjacent-layer crossing", u, v)
		}
	}
	d, err := NewDesign(widths, devs...)
	if err != nil {
		return nil, err
	}
	d.Input = WireRef{Layer: inputLayer, Index: idx[inputLayer][bg.TerminalID]}
	for _, r := range bg.Roots {
		d.OutputNames = append(d.OutputNames, r.Name)
		switch r.Kind {
		case RootConst0:
			d.Outputs = append(d.Outputs, WireRef{Layer: 0, Index: const0Index})
		case RootConst1:
			d.Outputs = append(d.Outputs, d.Input)
		default:
			l := lowestEven(r.NodeID)
			d.Outputs = append(d.Outputs, WireRef{Layer: l, Index: idx[l][r.NodeID]})
		}
	}
	d.VarNames = bg.VarNames

	// Postconditions: every layer is exactly as wide as the labeling
	// implies (its occupancy, plus the const-0 wire on layer 0 and the
	// padding of an empty layer), and every device (one per edge, one
	// stitch per spanned layer pair) landed on its own crossing.
	want := labeling.ComputeStats(k, lo, hi).Widths
	if needConst0 {
		want[0]++
	}
	for l := range want {
		want[l] = max(want[l], 1)
	}
	if err := invariant.GridDims(d.Widths, want); err != nil {
		return nil, fmt.Errorf("xbar: %w", err)
	}
	programmed := 0
	for p := range d.Planes {
		programmed += d.Planes[p].Len()
	}
	if err := invariant.ProgrammedCells(programmed, bg.G.M(), stitches); err != nil {
		return nil, fmt.Errorf("xbar: %w", err)
	}
	return d, nil
}
