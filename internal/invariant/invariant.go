// Package invariant implements cheap, always-on postcondition checks for
// the COMPACT pipeline. Each stage re-verifies the mathematical property
// its result is supposed to carry — the odd-cycle-transversal residual is
// 2-colorable, a VH-labeling realizes every BDD edge with semiperimeter
// S = n + k, a crossbar design matches its labeling cell for cell, an LP
// solution respects its bounds — and converts any breach into a structured
// *Error instead of silently propagating a corrupt intermediate.
//
// Every check is linear (or better) in the size of its input, so they stay
// enabled in production builds: the pipeline stages they guard are
// NP-hard searches whose cost dwarfs an O(V+E) scan.
package invariant

import (
	"fmt"
	"slices"

	"compact/internal/graph"
)

// Error is a structured invariant violation: which check failed and how.
type Error struct {
	Check  string // stable identifier, e.g. "oct.residual-bipartite"
	Detail string
}

func (e *Error) Error() string {
	return fmt.Sprintf("invariant %s violated: %s", e.Check, e.Detail)
}

// Violationf builds an *Error for the named check.
func Violationf(check, format string, args ...any) *Error {
	return &Error{Check: check, Detail: fmt.Sprintf(format, args...)}
}

// ResidualBipartite checks an odd-cycle-transversal result: side must be a
// proper 2-coloring of g minus the transversal (no residual edge joins
// equal sides), transversal vertices carry side -1, and all others 0 or 1.
func ResidualBipartite(g *graph.Graph, transversal map[int]bool, side []int) error {
	const check = "oct.residual-bipartite"
	if len(side) != g.N() {
		return Violationf(check, "%d side entries for %d vertices", len(side), g.N())
	}
	for v := 0; v < g.N(); v++ {
		switch {
		case transversal[v] && side[v] != -1:
			return Violationf(check, "transversal vertex %d carries side %d, want -1", v, side[v])
		case !transversal[v] && side[v] != 0 && side[v] != 1:
			return Violationf(check, "residual vertex %d carries side %d, want 0 or 1", v, side[v])
		}
	}
	for _, e := range g.Edges() {
		u, v := e[0], e[1]
		if transversal[u] || transversal[v] {
			continue
		}
		if side[u] == side[v] {
			return Violationf(check, "residual edge (%d,%d) joins side %d to itself: transversal leaves an odd cycle", u, v, side[u])
		}
	}
	return nil
}

// EdgesSpanHV checks the paper's realizability condition on a VH-labeling:
// every edge of g must join an H-capable endpoint (wordline) to a
// V-capable endpoint (bitline), in either orientation, or the edge's
// memristor has no crossing to sit on.
func EdgesSpanHV(g *graph.Graph, hasH, hasV func(v int) bool) error {
	const check = "labeling.edge-spans-hv"
	for _, e := range g.Edges() {
		u, v := e[0], e[1]
		if (hasH(u) && hasV(v)) || (hasV(u) && hasH(v)) {
			continue
		}
		return Violationf(check, "edge (%d,%d) has no H×V orientation", u, v)
	}
	return nil
}

// Semiperimeter checks S = n + k: with every one of the n nodes on at
// least one line and each of the k doubly-labeled (VH) nodes on two,
// rows + cols must equal n + k exactly (the paper's Method 1 objective).
func Semiperimeter(n, vhCount, s int) error {
	if s != n+vhCount {
		return Violationf("labeling.semiperimeter", "S = %d but n + k = %d + %d = %d", s, n, vhCount, n+vhCount)
	}
	return nil
}

// GridDims checks that a layer stack's widths match the ones its
// labeling implies, layer by layer (a 2D crossbar is the stack
// [rows, cols]).
func GridDims(got, want []int) error {
	if !slices.Equal(got, want) {
		return Violationf("xbar.grid-dims", "design layer widths are %v, labeling implies %v", got, want)
	}
	return nil
}

// ProgrammedCells checks that a mapped crossbar holds exactly one
// memristor per graph edge plus one stitch per spanned layer pair (at
// K=2, one per VH node): every device lands on its own crossing, none
// lost, none invented.
func ProgrammedCells(programmed, edges, stitches int) error {
	if programmed != edges+stitches {
		return Violationf("xbar.programmed-cells", "%d programmed cells for %d edges + %d stitches", programmed, edges, stitches)
	}
	return nil
}

// BoundedValues checks lo[j]−tol ≤ x[j] ≤ up[j]+tol for every variable: an
// LP solution that leaves its box is a simplex bookkeeping failure, not a
// model property.
func BoundedValues(check string, x, lo, up []float64, tol float64) error {
	if len(x) > len(lo) || len(x) > len(up) {
		return Violationf(check, "%d values for bounds of length %d/%d", len(x), len(lo), len(up))
	}
	for j, xj := range x {
		if xj < lo[j]-tol || xj > up[j]+tol {
			return Violationf(check, "x[%d] = %g outside [%g, %g] (tol %g)", j, xj, lo[j], up[j], tol)
		}
	}
	return nil
}
