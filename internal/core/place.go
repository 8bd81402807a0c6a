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
// The placement engine (xbar.Stack.Place) only reasons about the
// compatibility table; the loop below treats it as untrusted and
// re-verifies the *effective* design — the function the defective array
// actually computes under the chosen binding — against the source network
// before a result is ever returned. One loop serves 2D designs and K-layer
// stacks alike:
//
//  1. place the stack (greedy first; the final attempt forces the exact
//     ILP engine so the loop never gives up while a placement provably
//     exists within budget);
//  2. materialize the effective design (xbar.Stack.UnderDefects);
//  3. verify its compiled wire graph (verifyWires: a formal sneak-path
//     equivalence proof, sampled simulation only past the node limit);
//  4. on any mismatch, retry with a fresh placement seed.
//
// A proven *xbar.Unplaceable aborts immediately (retrying cannot help),
// context expiry surfaces as the context error, and exhausting the attempt
// budget returns the last failure — a wrong crossbar is never returned
// silently, which is the robustness contract of this stage.

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

// placeWithRepair places the design onto maps — the margin-aware
// candidate search first when Options.MarginAware asks for it, then the
// verified-repair loop — and, on success, records Placement, Effective,
// Defects and RepairAttempts on the result. opts must be canonical.
func (r *Result) placeWithRepair(ctx context.Context, maps []*defect.Map, opts Options) error {
	if err := faultinject.Err(faultinject.StagePlace); err != nil {
		return fmt.Errorf("core: placement: %w", err)
	}
	if opts.MarginAware {
		done, err := r.placeMarginAware(ctx, maps, opts)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		// Margin-aware search found nothing it could both verify and keep;
		// the plain loop below is the unconditional fallback.
	}
	pl, eff, err := repair(ctx, r, maps, opts)
	if err != nil {
		return err
	}
	r.Placement = pl
	r.Effective = eff
	r.Defects = maps
	return nil
}

// repair runs the verified-repair loop described above, placing the
// result's design onto maps. On success it records RepairAttempts and
// returns the placement and the verified effective design. opts must be
// canonical.
func repair(ctx context.Context, r *Result, maps []*defect.Map, opts Options) (*xbar.Placement, *xbar.Design, error) {
	s := r.Design.Stack(maps)
	attempts := opts.MaxRepairAttempts
	if attempts <= 0 {
		attempts = DefaultRepairAttempts
	}
	var lastErr error
	// rejected fingerprints placements that already failed verification.
	// Every search engine is deterministic in (stack, maps, seed) — and the
	// identity shortcut and the ILP's near-identity objective ignore the
	// seed entirely — so a fresh attempt can reproduce a rejected binding
	// exactly. Re-verifying it would fail identically; instead the loop
	// escalates straight to the exact engine, and gives up once the exact
	// engine repeats a rejected binding too, because no further attempt can
	// explore anything new.
	rejected := make(map[string]bool)
	forceILP := false
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if fn := progressFrom(ctx).RepairAttempt; fn != nil {
			fn(attempt + 1)
		}
		popts := xbar.PlaceOptions{
			// splitmix64-style odd-constant stride decorrelates attempts
			// while keeping the whole loop a pure function of DefectSeed.
			Seed: opts.DefectSeed + uint64(attempt)*0x9e3779b97f4a7c15,
		}
		if forceILP || attempt == attempts-1 {
			popts.Engine = xbar.PlaceILP
		}
		perms, engine, err := s.Place(ctx, popts)
		if err != nil {
			var up *xbar.Unplaceable
			if errors.As(err, &up) && up.Proven {
				return nil, nil, fmt.Errorf("core: placement: %w", err)
			}
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, nil, fmt.Errorf("core: placement: %w", ctxErr)
			}
			lastErr = err
			continue
		}
		fp := fmt.Sprint(perms)
		if rejected[fp] {
			if popts.Engine == xbar.PlaceILP {
				return nil, nil, fmt.Errorf("core: defect-aware placement failed after %d attempts: the exact engine reproduces a placement that already failed verification: %w", attempt+1, lastErr)
			}
			forceILP = true
			continue
		}
		pl := &xbar.Placement{Perms: perms, Engine: engine}
		eff, err := r.Design.UnderDefects(maps, pl)
		if err != nil {
			// Structural rejection of a search-produced placement is a bug,
			// not a retryable condition.
			return nil, nil, fmt.Errorf("core: placement: %w", err)
		}
		injected := false
		if mode, _ := faultinject.Mode(faultinject.StagePlace); mode == "corrupt" && attempt == 0 {
			// Deterministically hand verification a wrong effective design
			// on the first attempt, so tests can drive the repair path.
			corruptPlanes(eff.Planes)
			injected = true
		}
		if err := r.verifyWires(eff.Wires(), opts.NodeLimit); err != nil {
			lastErr = err
			if !injected {
				// An injected corruption says nothing about the placement
				// itself; only genuine failures veto a repeat binding.
				rejected[fp] = true
			}
			continue
		}
		r.RepairAttempts = attempt + 1
		return pl, eff, nil
	}
	return nil, nil, fmt.Errorf("core: defect-aware placement failed after %d attempts: %w", attempts, lastErr)
}

// Margin-aware candidate search tuning: how many distinct placements to
// enumerate, and the Margin sampling budget per candidate (exhaustive up
// to 2^6 assignments, 32 seeded samples beyond).
const (
	marginCandidates      = 4
	marginExhaustiveLimit = 6
	marginSamples         = 32
)

// placeMarginAware implements the Options.MarginAware secondary objective:
// enumerate candidate placements, verify each one's effective design, score
// the survivors by simulated worst-case voltage margin and keep the widest.
// It returns done=false (with a nil error) whenever the plain repair loop
// should run instead — candidate search failed unproven, or no candidate
// verified. Scoring failures (e.g. a design past the nodal solver's size
// cap) demote the candidate's score to -Inf rather than failing: a
// verified placement always beats no placement.
func (r *Result) placeMarginAware(ctx context.Context, maps []*defect.Map, opts Options) (bool, error) {
	cands, err := xbar.PlaceCandidates(ctx, r.Design, maps, xbar.PlaceOptions{Seed: opts.DefectSeed}, marginCandidates)
	if err != nil {
		var up *xbar.Unplaceable
		if errors.As(err, &up) && up.Proven {
			return false, fmt.Errorf("core: placement: %w", err)
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return false, fmt.Errorf("core: placement: %w", ctxErr)
		}
		return false, nil
	}
	var (
		bestPl     *xbar.Placement
		bestEff    *xbar.Design
		bestMargin = math.Inf(-1)
		attempts   int
	)
	for _, pl := range cands {
		if ctx.Err() != nil {
			break // keep the best verified candidate so far, if any
		}
		if fn := progressFrom(ctx).RepairAttempt; fn != nil {
			fn(attempts + 1)
		}
		eff, err := r.Design.UnderDefects(maps, pl)
		if err != nil {
			// Structural rejection of a search-produced placement is a bug,
			// not a retryable condition (same contract as the plain loop).
			return false, fmt.Errorf("core: placement: %w", err)
		}
		attempts++
		if err := r.verifyWires(eff.Wires(), opts.NodeLimit); err != nil {
			continue
		}
		score := math.Inf(-1)
		rep, err := spice.MarginContext(ctx, r.Design, r.Design.Eval, len(r.Design.VarNames),
			marginExhaustiveLimit, marginSamples,
			spice.Env{Model: spice.Default(), Defects: maps, Placement: pl}, opts.DefectSeed)
		if err == nil {
			score = rep.MinOn - rep.MaxOff
		}
		// Strict improvement only: candidate order starts with identity, so
		// on arrays where placement cannot change the electrical picture the
		// margin-aware loop returns exactly what the plain loop would.
		if bestPl == nil || score > bestMargin {
			bestPl, bestEff, bestMargin = pl, eff, score
		}
	}
	if bestPl == nil {
		return false, nil
	}
	r.Placement = bestPl
	r.Effective = bestEff
	r.Defects = maps
	r.RepairAttempts = attempts
	return true, nil
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
