package exp

import (
	"math"

	"compact/internal/labeling"
	"compact/internal/xbar"
)

// StaircaseLabels is the labeling behind the prior-art flow-based mapping
// COMPACT is compared against (reference [16] of the paper): every BDD
// node gets a wordline, and every node some edge enters also a bitline,
// stitched to its wordline by a statically-on memristor. Edges are
// directed by bg.Level, with the 1-terminal deepest. xbar.Map turns it
// into the inductive staircase that spans from the bottom-left to the
// top-right corner of the crossbar, so the semiperimeter is close to 2n
// (the paper measures ≈1.90n for [16]; the difference is that root nodes,
// having no incoming edges, need no bitline). No optimization problem is
// solved: the labeling, like the mapping, is linear in the BDD size.
func StaircaseLabels(bg *xbar.BDDGraph) []labeling.Label {
	depth := func(v int) int {
		if v == bg.TerminalID {
			return math.MaxInt
		}
		return bg.Level[v]
	}
	labels := make([]labeling.Label, bg.G.N())
	for v := range labels {
		labels[v] = labeling.H
	}
	for _, e := range bg.G.Edges() {
		child := e[1]
		if depth(e[0]) > depth(e[1]) {
			child = e[0]
		}
		labels[child] = labeling.VH
	}
	return labels
}

// staircaseMap maps bg the way [16] does.
func staircaseMap(bg *xbar.BDDGraph) (*xbar.Design, error) {
	return xbar.Map(bg, StaircaseLabels(bg))
}
