package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"compact/internal/bdd"
	"compact/internal/defect"
	"compact/internal/faultinject"
	"compact/internal/spice"
	"compact/internal/xbar"
)

// The verified-repair loop
//
// The placement stream (xbar.Placer) only reasons about the compatibility
// table; the loop below treats it as untrusted and re-verifies the
// *effective* design — the function the defective array actually computes
// under the chosen binding — against the source network before a result is
// ever returned. One loop serves 2D designs and K-layer stacks alike, and
// one Placer serves the whole request:
//
//  1. pull the stream's next candidate (distinct from every earlier one;
//     the exact stage runs at most once, and only while no candidate has
//     verified);
//  2. materialize the effective design (xbar.Design.UnderDefects);
//  3. verify its compiled wire graph (verifyWires: a formal sneak-path
//     equivalence proof, sampled simulation only past the node limit);
//  4. without Options.MarginAware the first verified candidate wins; with
//     it, up to marginCandidates verified candidates are scored by
//     simulated worst-case margin and the strictly best is kept.
//
// A proven *xbar.Unplaceable aborts immediately, context expiry keeps the
// best verified candidate so far (or surfaces as the context error), and
// MaxRepairAttempts bounds the candidates that fail verification — a wrong
// crossbar is never returned silently, which is the robustness contract of
// this stage.

// defectMaps resolves the physical array for this synthesis, one map per
// device plane: the explicit Options.Defects map (2D designs only), maps
// generated when DefectRate > 0 (each sized exactly to its plane, no
// spare lines), or nil when defect handling is off. A 2D design's plane
// draws from DefectSeed; a K-layer stack's plane p from a stride off it,
// so no two planes share a fault stream. opts must be canonical.
func (o Options) defectMaps(d *xbar.Design) ([]*defect.Map, error) {
	if o.Defects != nil {
		return []*defect.Map{o.Defects}, nil
	}
	if o.DefectRate <= 0 {
		return nil, nil
	}
	maps := make([]*defect.Map, len(d.Planes))
	for p := range maps {
		seed := o.DefectSeed
		if d.K() > 2 {
			seed += uint64(p+1) * 0x9e3779b97f4a7c15
		}
		m, err := defect.Generate(d.Widths[p], d.Widths[p+1], o.DefectRate, o.DefectOnFraction, seed)
		if err != nil {
			return nil, err
		}
		maps[p] = m
	}
	return maps, nil
}

// Margin-aware scoring: how many verified candidates to score, and the
// Margin sampling budget per candidate (exhaustive up to 2^6 assignments,
// 32 seeded samples beyond).
const (
	marginCandidates      = 4
	marginExhaustiveLimit = 6
	marginSamples         = 32
)

// placeWithRepair runs the verified-repair loop described above, placing
// the result's design onto maps, and on success records Placement,
// Effective, Defects and RepairAttempts on the result. A candidate whose
// margin scoring fails (e.g. a design past the nodal solver's size cap)
// scores -Inf rather than failing: a verified placement always beats no
// placement. opts must be canonical.
func (r *Result) placeWithRepair(ctx context.Context, maps []*defect.Map, opts Options) error {
	if err := faultinject.Err(faultinject.StagePlace); err != nil {
		return fmt.Errorf("core: placement: %w", err)
	}
	stream, err := xbar.NewPlacer(r.Design.Stack(maps), opts.DefectSeed)
	if err != nil {
		return fmt.Errorf("core: placement: %w", err)
	}
	keep := 1
	if opts.MarginAware {
		keep = marginCandidates
	}
	mode, _ := faultinject.Mode(faultinject.StagePlace)
	var (
		best       *xbar.Placement
		bestEff    *xbar.Design
		bestMargin = math.Inf(-1)
		verified   int // candidates that passed verification
		failed     int // candidates that failed it
		lastErr    error
	)
	for verified < keep && failed < opts.MaxRepairAttempts {
		pl, err := stream.Next(ctx, best == nil)
		if err != nil {
			if best != nil {
				break // keep the best verified candidate so far
			}
			if ctxErr := ctx.Err(); ctxErr != nil {
				return fmt.Errorf("core: placement: %w", ctxErr)
			}
			var up *xbar.Unplaceable
			if failed == 0 || errors.As(err, &up) && up.Proven {
				return fmt.Errorf("core: placement: %w", err)
			}
			return fmt.Errorf("core: defect-aware placement failed after %d attempts: %w", failed, err)
		}
		if pl == nil {
			break // the stream has ended
		}
		if fn := progressFrom(ctx).RepairAttempt; fn != nil {
			fn(verified + failed + 1)
		}
		eff, err := r.Design.UnderDefects(maps, pl)
		if err != nil {
			// Structural rejection of a search-produced placement is a bug,
			// not a retryable condition.
			return fmt.Errorf("core: placement: %w", err)
		}
		if mode == "corrupt" && verified+failed == 0 {
			// Deterministically hand verification a wrong effective design
			// on the first attempt, so tests can drive the repair path.
			corruptPlanes(eff.Planes)
		}
		if err := r.verifyWires(eff.Wires(), opts.NodeLimit); err != nil {
			lastErr = err
			failed++
			continue
		}
		verified++
		score := math.Inf(-1)
		if opts.MarginAware {
			rep, err := spice.MarginContext(ctx, r.Design, r.Design.Eval, len(r.Design.VarNames),
				marginExhaustiveLimit, marginSamples,
				spice.Env{Model: spice.Default(), Defects: maps, Placement: pl}, opts.DefectSeed)
			if err == nil {
				score = rep.MinOn - rep.MaxOff
			}
		}
		// Strict improvement only: ties keep the earlier candidate.
		if best == nil || score > bestMargin {
			best, bestEff, bestMargin = pl, eff, score
		}
	}
	if best == nil {
		if failed < opts.MaxRepairAttempts {
			return fmt.Errorf("core: defect-aware placement failed: all %d distinct placements failed verification: %w", failed, lastErr)
		}
		return fmt.Errorf("core: defect-aware placement failed after %d attempts: %w", failed, lastErr)
	}
	r.Placement = best
	r.Effective = bestEff
	r.Defects = maps
	r.RepairAttempts = verified + failed
	return nil
}

// verifyWires checks a compiled wire graph against the source network
// for both BDD kinds (every design's literals index network inputs): the
// symbolic sneak-path proof under the BDD node limit nodeLimit, and only
// when that proof hits the limit, exhaustive simulation up to 14 inputs
// and 512 seeded random vectors beyond.
func (r *Result) verifyWires(w *xbar.Wires, nodeLimit int) error {
	err := w.FormalVerify(r.network, nodeLimit)
	if !errors.Is(err, bdd.ErrNodeLimit) {
		return err
	}
	if bad := xbar.VerifyEquiv(w.NewEvaluator().Eval64, nil, r.network.Eval64, r.network.NumInputs(), 14, 512, 1); bad != nil {
		return fmt.Errorf("core: design disagrees with the network on %v", bad)
	}
	return nil
}

// corruptPlanes flips, in place, the polarity of the first literal cell in
// (plane, row, col) order — the deterministic wrong design used by the
// place=corrupt injection mode.
func corruptPlanes(planes []xbar.Plane) {
	for p := range planes {
		for r := 0; r < planes[p].Rows(); r++ {
			_, es := planes[p].Row(r)
			for i := range es {
				if es[i].Kind == xbar.Lit {
					es[i].Neg = !es[i].Neg
					return
				}
			}
		}
	}
}
