package core

import (
	"context"
	"errors"
	"fmt"
	"math"

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
//  3. verify its compiled wire graph — a formal sneak-path equivalence
//     proof for SBDD-mode results, exhaustive-or-sampled simulation
//     otherwise;
//  4. on any mismatch, retry with a fresh placement seed.
//
// A proven *xbar.Unplaceable aborts immediately (retrying cannot help),
// context expiry surfaces as the context error, and exhausting the attempt
// budget returns the last failure — a wrong crossbar is never returned
// silently, which is the robustness contract of this stage.

// defectMap resolves the physical array for this synthesis: the explicit
// Options.Defects map, a generated one when DefectRate > 0 (sized exactly
// to the design, no spare lines), or nil when defect handling is off.
// opts must be canonical.
func (o Options) defectMap(d *xbar.Design) (*defect.Map, error) {
	if o.Defects != nil {
		return o.Defects, nil
	}
	if o.DefectRate <= 0 {
		return nil, nil
	}
	return defect.Generate(d.Rows, d.Cols, o.DefectRate, o.DefectOnFraction, o.DefectSeed)
}

// placeWithRepair places the 2D design onto dm — the margin-aware
// candidate search first when Options.MarginAware asks for it, then the
// verified-repair loop — and, on success, records Placement, Effective,
// Defects and RepairAttempts on the result. opts must be canonical.
func (r *Result) placeWithRepair(ctx context.Context, dm *defect.Map, opts Options) error {
	if err := faultinject.Err(faultinject.StagePlace); err != nil {
		return fmt.Errorf("core: placement: %w", err)
	}
	if opts.MarginAware {
		done, err := r.placeMarginAware(ctx, dm, opts)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		// Margin-aware search found nothing it could both verify and keep;
		// the plain loop below is the unconditional fallback.
	}
	d := r.Design
	perms, engine, eff, err := repair(ctx, r, d.Stack(dm), opts, func(perms [][]int) (*xbar.Design, [][][]xbar.Entry, error) {
		eff, err := d.UnderDefects(dm, &xbar.Placement{RowPerm: perms[0], ColPerm: perms[1]})
		if err != nil {
			return nil, nil, err
		}
		return eff, [][][]xbar.Entry{eff.Cells}, nil
	})
	if err != nil {
		return err
	}
	r.Placement = &xbar.Placement{RowPerm: perms[0], ColPerm: perms[1], Engine: engine}
	r.Effective = eff
	r.Defects = dm
	return nil
}

// repair runs the verified-repair loop described above on the stack s.
// under materializes a binding's effective design, returning it with its
// planes (the place=corrupt injection mode flips a literal there). On
// success it records RepairAttempts and returns the binding, the engine
// that found it and the verified effective design. opts must be canonical.
func repair[D interface{ Wires() *xbar.Wires }](ctx context.Context, r *Result, s xbar.Stack, opts Options,
	under func(perms [][]int) (D, [][][]xbar.Entry, error)) ([][]int, string, D, error) {
	var none D
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
			return nil, "", none, err
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
				return nil, "", none, fmt.Errorf("core: placement: %w", err)
			}
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, "", none, fmt.Errorf("core: placement: %w", ctxErr)
			}
			lastErr = err
			continue
		}
		fp := fmt.Sprint(perms)
		if rejected[fp] {
			if popts.Engine == xbar.PlaceILP {
				return nil, "", none, fmt.Errorf("core: defect-aware placement failed after %d attempts: the exact engine reproduces a placement that already failed verification: %w", attempt+1, lastErr)
			}
			forceILP = true
			continue
		}
		eff, planes, err := under(perms)
		if err != nil {
			// Structural rejection of a search-produced placement is a bug,
			// not a retryable condition.
			return nil, "", none, fmt.Errorf("core: placement: %w", err)
		}
		injected := false
		if mode, _ := faultinject.Mode(faultinject.StagePlace); mode == "corrupt" && attempt == 0 {
			// Deterministically hand verification a wrong effective design
			// on the first attempt, so tests can drive the repair path.
			corruptPlanes(planes)
			injected = true
		}
		if err := r.verifyEffective(eff.Wires()); err != nil {
			lastErr = err
			if !injected {
				// An injected corruption says nothing about the placement
				// itself; only genuine failures veto a repeat binding.
				rejected[fp] = true
			}
			continue
		}
		r.RepairAttempts = attempt + 1
		return perms, engine, eff, nil
	}
	return nil, "", none, fmt.Errorf("core: defect-aware placement failed after %d attempts: %w", attempts, lastErr)
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
func (r *Result) placeMarginAware(ctx context.Context, dm *defect.Map, opts Options) (bool, error) {
	cands, err := xbar.PlaceCandidates(ctx, r.Design, dm, xbar.PlaceOptions{Seed: opts.DefectSeed}, marginCandidates)
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
		eff, err := r.Design.UnderDefects(dm, pl)
		if err != nil {
			// Structural rejection of a search-produced placement is a bug,
			// not a retryable condition (same contract as the plain loop).
			return false, fmt.Errorf("core: placement: %w", err)
		}
		attempts++
		if err := r.verifyEffective(eff.Wires()); err != nil {
			continue
		}
		score := math.Inf(-1)
		rep, err := spice.MarginContext(ctx, r.Design, r.Design.Eval, len(r.Design.VarNames),
			marginExhaustiveLimit, marginSamples,
			spice.Env{Model: spice.Default(), Defects: dm, Placement: pl}, opts.DefectSeed)
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
	r.Defects = dm
	r.RepairAttempts = attempts
	return true, nil
}

// verifyEffective checks an effective design's compiled wire graph
// against the source network: a formal sneak-path equivalence proof when
// the shared BDD is available (SBDD mode), exhaustive simulation up to 14
// inputs and 512 seeded random vectors beyond that otherwise.
func (r *Result) verifyEffective(w *xbar.Wires) error {
	if r.mgr != nil {
		return w.FormalVerify(r.network, 0)
	}
	if bad := xbar.VerifyEquiv(w.Eval64, nil, r.network.Eval64, r.network.NumInputs(), 14, 512, 1); bad != nil {
		return fmt.Errorf("core: effective design disagrees with the network on %v", bad)
	}
	return nil
}

// corruptPlanes flips the polarity of the first literal cell — the
// deterministic wrong design used by the place=corrupt injection mode.
func corruptPlanes(planes [][][]xbar.Entry) {
	for _, plane := range planes {
		for _, row := range plane {
			for c := range row {
				if row[c].Kind == xbar.Lit {
					row[c].Neg = !row[c].Neg
					return
				}
			}
		}
	}
}
