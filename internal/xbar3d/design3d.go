// Package xbar3d holds the layered names of the one crossbar model. A
// FLOW-3D K-layer stack is an xbar.Design with K wire layers (see package
// xbar), so the names below are aliases and one-line wrappers kept for
// callers that still use them.
package xbar3d

import (
	"compact/internal/labeling"
	"compact/internal/logic"
	"compact/internal/xbar"
)

// Design3D is the layered name of xbar.Design.
type Design3D = xbar.Design

// Unplaceable3D is the layered name of the placement engine's refusal.
type Unplaceable3D = xbar.Unplaceable

// Map3D maps a K-labeling onto a K-layer stack: xbar.MapStack on the
// solution's layer intervals.
func Map3D(bg *xbar.BDDGraph, sol *labeling.Solution) (*Design3D, error) {
	return xbar.MapStack(bg, sol.K, sol.Lo, sol.Hi)
}

// FormalVerify3D is xbar.FormalVerify.
func FormalVerify3D(d *Design3D, nw *logic.Network, nodeLimit int) error {
	return xbar.FormalVerify(d, nw, nodeLimit)
}
