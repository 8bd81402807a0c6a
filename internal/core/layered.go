package core

import (
	"context"
	"errors"
	"fmt"

	"compact/internal/bdd"
	"compact/internal/defect"
	"compact/internal/faultinject"
	"compact/internal/labeling"
	"compact/internal/logic"
	"compact/internal/xbar"
	"compact/internal/xbar3d"
)

// The FLOW-3D layered pipeline
//
// With Options.Layers >= 3 the back half of the pipeline swaps out: the
// BDD graph is K-colored onto a layer stack (labeling.SolveK — each node
// occupies a contiguous layer interval, each edge a crossing between
// adjacent layers), mapped to a K-layer design (xbar3d.Map3D), and
// verified through the layered sneak-path evaluators. Defect handling is
// the 2D verified-repair loop (place.go) with one generated map per device
// plane: the same placement engine, retry policy and verification.

// synthesizeLayered runs the K-layer back half on an already-built BDD
// graph; opts must be canonical with Layers >= 3.
func synthesizeLayered(ctx context.Context, nw *logic.Network, opts Options, bg *xbar.BDDGraph,
	nodes, edges int, order []int, mgr *bdd.Manager, roots []bdd.Node) (*Result, error) {

	sol, err := labeling.SolveK(ctx, bg.Problem(!opts.NoAlign), opts.Layers, labeling.Options{
		Gamma:          opts.gamma(),
		Method:         opts.Method,
		OCTBackend:     opts.OCTBackend,
		AutoExactLimit: opts.AutoExactLimit,
		MaxRows:        opts.MaxRows,
		MaxCols:        opts.MaxCols,
	})
	if err != nil {
		if errors.Is(err, labeling.ErrInfeasible) {
			return nil, infeasibleError(bg, opts, err)
		}
		return nil, fmt.Errorf("core: labeling: %w", err)
	}
	if err := faultinject.Err(faultinject.StageMap); err != nil {
		return nil, fmt.Errorf("core: mapping: %w", err)
	}
	design, err := xbar3d.Map3D(bg, sol)
	if err != nil {
		return nil, fmt.Errorf("core: mapping: %w", err)
	}
	if opts.BDDKind != SeparateROBDDs {
		remap := make([]int, len(order))
		copy(remap, order)
		if err := design.RemapVars(remap, nw.InputNames()); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	res := &Result{
		Design3D:  design,
		Graph:     bg,
		KLabeling: sol,
		BDDNodes:  nodes,
		BDDEdges:  edges,
		Order:     order,
		network:   nw,
		mgr:       mgr,
		roots:     roots,
	}
	maps, err := opts.defectMaps3D(design)
	if err != nil {
		return nil, fmt.Errorf("core: defect map: %w", err)
	}
	if maps != nil {
		if err := faultinject.Err(faultinject.StagePlace); err != nil {
			return nil, fmt.Errorf("core: placement: %w", err)
		}
		perms, engine, eff, err := repair(ctx, res, design.Stack(maps), opts, func(perms [][]int) (*xbar3d.Design3D, []xbar.Plane, error) {
			eff, err := design.UnderDefects3D(maps, &xbar3d.Placement3D{Perms: perms})
			if err != nil {
				return nil, nil, err
			}
			return eff, eff.Cells, nil
		})
		if err != nil {
			return nil, err
		}
		res.Placement3D = &xbar3d.Placement3D{Perms: perms, Engine: engine}
		res.Effective3D = eff
		res.DefectMaps3D = maps
	}
	return res, nil
}

// defectMaps3D generates one seeded defect map per device plane when
// DefectRate > 0, each sized exactly to its plane. Plane seeds stride off
// DefectSeed so no two planes share a fault stream. opts must be
// canonical.
func (o Options) defectMaps3D(d *xbar3d.Design3D) ([]*defect.Map, error) {
	if o.DefectRate <= 0 {
		return nil, nil
	}
	maps := make([]*defect.Map, len(d.Cells))
	for dl := range d.Cells {
		m, err := defect.Generate(d.Widths[dl], d.Widths[dl+1], o.DefectRate, o.DefectOnFraction,
			o.DefectSeed+uint64(dl+1)*0x9e3779b97f4a7c15)
		if err != nil {
			return nil, err
		}
		maps[dl] = m
	}
	return maps, nil
}
