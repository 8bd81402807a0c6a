package main

import (
	"bytes"
	"context"
	"fmt"

	"compact/internal/bdd"
	"compact/internal/core"
	"compact/internal/labeling"
	"compact/internal/logic"
	"compact/internal/xbar"
	"compact/internal/xbar3d"
)

// staged is the outcome of the staged replica: the design (2D or layered)
// and the labeling that produced it.
type staged struct {
	design   *xbar.Design
	design3D *xbar3d.Design3D
	sol      *labeling.Solution
	ksol     *labeling.KSolution
	bddNodes int
}

// wire returns the design's wire-format JSON.
func (s *staged) wire() ([]byte, error) {
	if s.design3D != nil {
		return s.design3D.MarshalJSON()
	}
	return s.design.MarshalJSON()
}

// stagedSynth replays core.SynthesizeContext's single-crossbar path for
// the options the workloads use (shared BDD, DFS variable order, no sift,
// alignment on, no defect map, no dimension caps) one layer call at a
// time, each inside its own span under parent. Its designs must equal
// SynthesizeContext's byte for byte; the workloads check that on every
// circuit.
func stagedSynth(ctx context.Context, parent *Active, nw *logic.Network, opts core.Options) (*staged, error) {
	opts = opts.Canonical()
	if opts.BDDKind != core.SBDD || opts.Sift || opts.VarOrder != nil || opts.Defects != nil ||
		opts.DefectRate > 0 || opts.Partition || opts.MaxRows > 0 || opts.MaxCols > 0 {
		return nil, fmt.Errorf("staged replica: unsupported options %+v", opts)
	}
	sp := parent.Child("bdd.order")
	order := bdd.DFSOrder(nw)
	sp.End()

	sp = parent.Child("bdd.build")
	m, roots, err := bdd.BuildNetwork(nw, order, opts.NodeLimit)
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("SBDD construction: %w", err)
	}
	nodes := m.CountNodes(roots...)
	_ = m.CountEdges(roots...) // core reports it; kept so the replica does the same work
	sp.Set("nodes", float64(nodes))
	sp.End()

	sp = parent.Child("xbar.graph")
	bg, err := xbar.FromBDD(m, roots, nw.OutputNames)
	if err != nil {
		sp.End()
		return nil, err
	}
	prob := bg.Problem(!opts.NoAlign)
	sp.End()

	lopts := labeling.Options{
		Gamma:          opts.Gamma,
		Method:         opts.Method,
		OCTBackend:     opts.OCTBackend,
		AutoExactLimit: opts.AutoExactLimit,
	}
	remap := append([]int(nil), order...)
	if opts.Layers > 2 {
		sp = parent.Child("labeling.solvek")
		ksol, err := labeling.SolveK(ctx, prob, opts.Layers, lopts)
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("K-labeling: %w", err)
		}
		sp.End()
		sp = parent.Child("xbar3d.map")
		d, err := xbar3d.Map3D(bg, ksol)
		if err == nil {
			err = d.RemapVars(remap, nw.InputNames())
		}
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("3D mapping: %w", err)
		}
		return &staged{design3D: d, ksol: ksol, bddNodes: nodes}, nil
	}

	sp = parent.Child("labeling.solve")
	sol, err := labeling.SolveContext(ctx, prob, lopts)
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("labeling: %w", err)
	}
	optimal := 0.0
	if sol.Optimal {
		optimal = 1
	}
	sp.Set("optimal", optimal)
	if n := len(sol.Trace); n > 0 {
		sp.Set("traced", 1)
		sp.Set("gap", sol.Trace[n-1].Gap)
		sp.Set("bb_nodes", float64(sol.Trace[n-1].Nodes))
	}
	sp.End()

	sp = parent.Child("xbar.map")
	d, err := xbar.Map(bg, sol.Labels)
	if err == nil {
		err = d.RemapVars(remap, nw.InputNames())
	}
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("mapping: %w", err)
	}
	return &staged{design: d, sol: sol, bddNodes: nodes}, nil
}

// resultWire returns the wire JSON of a SynthesizeContext result's design.
func resultWire(r *core.Result) ([]byte, error) {
	if r.Design3D != nil {
		return r.Design3D.MarshalJSON()
	}
	return r.Design.MarshalJSON()
}

// sameWire reports whether the staged design equals the result's design
// in wire JSON, byte for byte.
func sameWire(st *staged, ref *core.Result) (bool, error) {
	a, err := st.wire()
	if err != nil {
		return false, fmt.Errorf("encoding staged design: %w", err)
	}
	b, err := resultWire(ref)
	if err != nil {
		return false, fmt.Errorf("encoding reference design: %w", err)
	}
	return bytes.Equal(a, b), nil
}

// replicaMatches requires the staged replica's design to equal
// SynthesizeContext's byte for byte. The benchmark runs with one P, where
// branch and bound is the serial, deterministic search, so any difference
// is a failure.
func replicaMatches(t *tally, name string, st *staged, ref *core.Result) bool {
	same, err := sameWire(st, ref)
	if err != nil {
		t.fail("%s: %v", name, err)
		return false
	}
	if !same {
		t.fail("%s: staged replica design differs from SynthesizeContext's", name)
	}
	return same
}
