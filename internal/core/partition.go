package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"compact/internal/bdd"
	"compact/internal/defect"
	"compact/internal/logic"
	"compact/internal/partition"
)

// Partitioned synthesis
//
// When Options.Partition is set and the single-crossbar pipeline refuses
// with an infeasibility under MaxRows/MaxCols, SynthesizeContext falls
// back to partition.Build with the pipeline itself as the tile
// synthesizer. The correctness contract is layered:
//
//  1. every tile is synthesized by the ordinary verified pipeline
//     (including defect-aware placement with verified repair, when the
//     options ask for it) and then formally verified against its
//     sub-network — symbolic sneak-path proof when the shared BDD is
//     available, exhaustive-or-sampled simulation as the fallback;
//  2. partition.Build checks the assembled plan for end-to-end Eval
//     parity against the source network before returning it;
//  3. the plan-level symbolic cascade proof (Plan.FormalVerify) is run
//     on top, degrading to the already-passed sampled parity only when
//     the composed BDD blows past the node limit.
//
// A wrong plan is never returned.

// synthesizePartitioned cuts nw into a verified tile cascade. opts must
// be canonical; the shared deadline rides on ctx (tile synthesis runs
// with TimeLimit = 0 so the clock is never restarted per tile).
func synthesizePartitioned(ctx context.Context, nw *logic.Network, opts Options) (*partition.Plan, error) {
	topts := opts
	topts.Partition = false // tiles are single crossbars by definition
	topts.TimeLimit = 0     // the outer ctx already carries the deadline
	topts.VarOrder = nil    // a whole-network order is meaningless per piece
	var tilesDone atomic.Int64
	synth := func(ctx context.Context, sub *logic.Network, salt uint64) (*partition.TileResult, error) {
		o := topts
		// Decorrelate per-tile defect generation and placement seeds
		// deterministically (splitmix64-style odd-constant stride), so the
		// whole plan stays a pure function of (network, options).
		o.DefectSeed = topts.DefectSeed + salt*0x9e3779b97f4a7c15
		if o.DefectRate > 0 && o.Defects == nil {
			// Each tile is its own physical array of the full per-tile cap
			// size, with independently generated faults. Generating here
			// (rather than letting the pipeline size the map to the design)
			// gives tiles smaller than the caps genuine placement slack.
			dm, err := defect.Generate(opts.MaxRows, opts.MaxCols, o.DefectRate, o.DefectOnFraction, o.DefectSeed)
			if err != nil {
				return nil, err
			}
			o.Defects = dm
			o.DefectRate = 0
		}
		res, err := SynthesizeContext(ctx, sub, o)
		if err != nil {
			return nil, err
		}
		// The logical tile is proven here; the repair loop has already
		// proven the effective one when a defect map was in play.
		if err := res.verifyWires(res.Design.Wires(), o.NodeLimit); err != nil {
			return nil, fmt.Errorf("core: tile failed verification: %w", err)
		}
		if fn := progressFrom(ctx).TileDone; fn != nil {
			fn(int(tilesDone.Add(1)))
		}
		return &partition.TileResult{
			Design:         res.Design,
			Placement:      res.Placement,
			Defects:        o.Defects, // the tile's one plane, nil when no map was in play
			RepairAttempts: res.RepairAttempts,
		}, nil
	}
	plan, err := partition.Build(ctx, nw, partition.Options{
		MaxRows: opts.MaxRows,
		MaxCols: opts.MaxCols,
		Synth:   synth,
		Seed:    opts.DefectSeed | 1,
	})
	if err != nil {
		return nil, err
	}
	// Plan-level formal proof by symbolic cascade composition. A node-limit
	// blowup is tolerated — Build's Eval parity already ran — but a genuine
	// counterexample is a bug and must surface, never be returned.
	if err := plan.FormalVerify(nw, opts.NodeLimit); err != nil && !errors.Is(err, bdd.ErrNodeLimit) {
		return nil, fmt.Errorf("core: partitioned plan failed the cascade proof: %w", err)
	}
	return plan, nil
}
