package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"compact/internal/bench"
	"compact/internal/defect"
	"compact/internal/faultinject"
	"compact/internal/labeling"
	"compact/internal/logic"
	"compact/internal/spice"
	"compact/internal/xbar"
)

// TestDefectSuiteBenchmarks is the acceptance suite: seeded defect maps at
// 1%/5%/10% stuck-at rates over benchmark circuits. Every returned design
// must carry a placement whose effective design passes FormalVerify;
// unplaceable instances must fail with a typed *xbar.Unplaceable carrying
// a witness — never a wrong design, never a panic. The whole suite is a
// pure function of the seeds: a second run must reproduce placements and
// verdicts exactly.
func TestDefectSuiteBenchmarks(t *testing.T) {
	circuits := []string{"ctrl", "cavlc", "int2float"}
	rates := []float64{0.01, 0.05, 0.10}
	for _, name := range circuits {
		nw := bench.MustBuild(name)
		for _, rate := range rates {
			opts := Options{Method: labeling.MethodHeuristic, DefectRate: rate, DefectSeed: 42}
			run := func() (*Result, error) { return Synthesize(nw, opts) }
			res, err := run()
			if err != nil {
				var up *xbar.Unplaceable
				if !errors.As(err, &up) {
					t.Fatalf("%s @%g%%: non-typed failure: %v", name, 100*rate, err)
				}
				if up.LogicalRow < 0 && up.Stage != "dims" {
					t.Errorf("%s @%g%%: Unplaceable without a row witness: %+v", name, 100*rate, up)
				}
				// The unplaceable verdict must reproduce (the detail text may
				// differ on budget-limited exact solves, the type must not).
				if _, err2 := run(); err2 == nil || !errors.As(err2, new(*xbar.Unplaceable)) {
					t.Errorf("%s @%g%%: verdict not reproducible: %v vs %v", name, 100*rate, err, err2)
				}
				continue
			}
			if res.Placement == nil || res.Effective == nil || res.Defects == nil {
				t.Fatalf("%s @%g%%: result missing placement fields", name, 100*rate)
			}
			if res.RepairAttempts < 1 {
				t.Fatalf("%s @%g%%: RepairAttempts = %d", name, 100*rate, res.RepairAttempts)
			}
			if err := xbar.FormalVerify(res.Effective, nw, 0); err != nil {
				t.Fatalf("%s @%g%%: effective design fails formal verification: %v", name, 100*rate, err)
			}
			res2, err := run()
			if err != nil {
				t.Fatalf("%s @%g%%: second run failed: %v", name, 100*rate, err)
			}
			if !equalPerm(res.Placement.Perms[0], res2.Placement.Perms[0]) ||
				!equalPerm(res.Placement.Perms[1], res2.Placement.Perms[1]) {
				t.Errorf("%s @%g%%: placement not deterministic", name, 100*rate)
			}
			if res.Defects[0].Digest() != res2.Defects[0].Digest() {
				t.Errorf("%s @%g%%: defect map not deterministic", name, 100*rate)
			}
		}
	}
}

func equalPerm(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func smallNetwork() *logic.Network {
	b := logic.NewBuilder("small")
	x, y, z := b.Input("x"), b.Input("y"), b.Input("z")
	b.Output("f", b.Or(b.And(x, y), b.And(b.Not(x), z)))
	b.Output("g", b.Xor(x, y, z))
	return b.Build()
}

func TestSynthesizeWithExplicitDefects(t *testing.T) {
	nw := smallNetwork()
	clean, err := Synthesize(nw, Options{Method: labeling.MethodHeuristic})
	if err != nil {
		t.Fatal(err)
	}
	// One spare row/column beyond the design, with faults dense enough to
	// force a real (non-identity) placement for at least some seeds.
	dm, err := defect.Generate(clean.Design.Rows+1, clean.Design.Cols+1, 0.15, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(nw, Options{Method: labeling.MethodHeuristic, Defects: dm, DefectSeed: 3})
	if err != nil {
		var up *xbar.Unplaceable
		if !errors.As(err, &up) {
			t.Fatalf("non-typed failure: %v", err)
		}
		t.Skipf("instance unplaceable (typed, witnessed): %v", up)
	}
	if err := xbar.FormalVerify(res.Effective, nw, 0); err != nil {
		t.Fatalf("effective design fails formal verification: %v", err)
	}
	view := res.View()
	if view.Placement == nil {
		t.Fatal("view missing placement")
	}
	if view.Placement.Defects != dm.Len() || view.Placement.DefectsDigest != dm.Digest() {
		t.Errorf("view placement misreports the defect map: %+v", view.Placement)
	}
	if view.Placement.RepairAttempts != res.RepairAttempts {
		t.Errorf("view repair attempts %d != result %d", view.Placement.RepairAttempts, res.RepairAttempts)
	}
}

func TestDefectRepairLoopRecoversFromCorruption(t *testing.T) {
	t.Setenv(faultinject.EnvVar, "place=corrupt")
	nw := smallNetwork()
	res, err := Synthesize(nw, Options{Method: labeling.MethodHeuristic, DefectRate: 0.02, DefectSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.RepairAttempts < 2 {
		t.Fatalf("corrupted first attempt not retried: RepairAttempts = %d", res.RepairAttempts)
	}
	if err := xbar.FormalVerify(res.Effective, nw, 0); err != nil {
		t.Fatalf("repaired design fails formal verification: %v", err)
	}
}

// TestRepairLoopProvesROBDDs pins that the repair loop proves per-output
// ROBDD designs as it does SBDD ones. On a fault-free map every engine
// returns the identity binding, so with one attempt the injected
// corruption fails with the proof's witness, and with the default budget
// the second attempt verifies.
func TestRepairLoopProvesROBDDs(t *testing.T) {
	nw := bench.MustBuild("ctrl")
	opts := Options{Method: labeling.MethodHeuristic, BDDKind: SeparateROBDDs}
	clean, err := Synthesize(nw, opts)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Defects, err = defect.New(clean.Design.Rows, clean.Design.Cols); err != nil {
		t.Fatal(err)
	}
	t.Setenv(faultinject.EnvVar, "place=corrupt")
	one := opts
	one.MaxRepairAttempts = 1
	if _, err := Synthesize(nw, one); err == nil || !strings.Contains(err.Error(), "differs from the network") {
		t.Fatalf("corrupted ROBDD design not caught by the proof: %v", err)
	}
	res, err := Synthesize(nw, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.RepairAttempts != 2 {
		t.Fatalf("RepairAttempts = %d, want 2", res.RepairAttempts)
	}
	if err := xbar.FormalVerify(res.Effective, nw, 0); err != nil {
		t.Fatalf("repaired design fails formal verification: %v", err)
	}
}

// TestVerifyWiresSampledFallback pins verifyWires' node-limit fallback:
// under a one-node limit the proof gives up and sampling decides, passing
// a correct design and catching a corrupted one.
func TestVerifyWiresSampledFallback(t *testing.T) {
	nw := bench.MustBuild("ctrl")
	res, err := Synthesize(nw, Options{Method: labeling.MethodHeuristic})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.verifyWires(res.Design.Wires(), 1); err != nil {
		t.Fatalf("correct design rejected by the sampled fallback: %v", err)
	}
	bad := clone2D(t, res.Design)
	corruptPlanes([]xbar.Plane{bad.Planes[0]})
	err = res.verifyWires(bad.Wires(), 1)
	if err == nil || !strings.Contains(err.Error(), "disagrees with the network") {
		t.Fatalf("corrupted design passed the sampled fallback: %v", err)
	}
}

// TestRepairLoopBailsOnRepeatedPlacement pins the repair loop's
// termination behavior when verification genuinely fails: the loop
// verifies each binding of the placement stream once and stops when the
// stream ends, instead of burning the whole attempt budget re-verifying
// the same placement. The persistent failure is simulated by verifying
// against a network the design does not implement.
func TestRepairLoopBailsOnRepeatedPlacement(t *testing.T) {
	res, err := Synthesize(smallNetwork(), Options{Method: labeling.MethodHeuristic})
	if err != nil {
		t.Fatal(err)
	}
	b := logic.NewBuilder("other")
	x, y, z := b.Input("x"), b.Input("y"), b.Input("z")
	b.Output("f", b.And(x, y, z))
	b.Output("g", b.Or(x, z))
	r := &Result{Design: res.Design, network: b.Build()}
	// A fault-free map sized to the design: every binding is compatible,
	// and the stream yields a fixed set of distinct ones.
	dm, err := defect.New(res.Design.Rows, res.Design.Cols)
	if err != nil {
		t.Fatal(err)
	}
	maps := []*defect.Map{dm}
	stream, err := xbar.NewPlacer(res.Design.Stack(maps), 0)
	if err != nil {
		t.Fatal(err)
	}
	distinct := 0
	for {
		pl, err := stream.Next(context.Background(), true)
		if err != nil {
			t.Fatal(err)
		}
		if pl == nil {
			break
		}
		distinct++
	}
	const budget = 40
	if distinct >= budget {
		t.Fatalf("the stream yields %d bindings; the test needs fewer than the %d-attempt budget", distinct, budget)
	}
	var verified []int
	ctx := WithProgress(context.Background(), Progress{RepairAttempt: func(n int) { verified = append(verified, n) }})
	err = r.placeWithRepair(ctx, maps, Options{MaxRepairAttempts: budget}.Canonical())
	if err == nil {
		t.Fatal("verification against a mismatched network succeeded")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("all %d distinct placements failed verification", distinct)) {
		t.Fatalf("repair loop did not report the ended stream: %v", err)
	}
	if len(verified) != distinct {
		t.Fatalf("repair loop verified %d candidates, the stream has %d distinct bindings", len(verified), distinct)
	}
}

func TestDefectROBDDModeProvesEffective(t *testing.T) {
	nw := smallNetwork()
	res, err := Synthesize(nw, Options{
		Method: labeling.MethodHeuristic, BDDKind: SeparateROBDDs,
		DefectRate: 0.02, DefectSeed: 5,
	})
	if err != nil {
		var up *xbar.Unplaceable
		if !errors.As(err, &up) {
			t.Fatalf("non-typed failure: %v", err)
		}
		return
	}
	if bad := res.Effective.VerifyAgainst(nw.Eval, nw.NumInputs(), nw.NumInputs(), 0, 1); bad != nil {
		t.Fatalf("effective ROBDD-mode design disagrees on %v", bad)
	}
	if err := xbar.FormalVerify(res.Effective, nw, 0); err != nil {
		t.Fatalf("effective ROBDD-mode design fails the proof: %v", err)
	}
}

func TestDefectOptionsValidation(t *testing.T) {
	nw := smallNetwork()
	for _, opts := range []Options{
		{DefectRate: -0.1},
		{DefectRate: 1},
		{DefectOnFraction: 2},
		{DefectOnFraction: -1},
		{MaxRepairAttempts: -1},
	} {
		if _, err := Synthesize(nw, opts); err == nil {
			t.Errorf("options %+v accepted", opts)
		}
	}
}

func TestDefectOptionsKey(t *testing.T) {
	base := Options{}.Key()
	withRate := Options{DefectRate: 0.05}.Key()
	if base == withRate {
		t.Error("defect rate not part of the options key")
	}
	dm, err := defect.Generate(4, 4, 0.2, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	withMap := Options{Defects: dm}.Key()
	if withMap == base || withMap == withRate {
		t.Error("defect map not part of the options key")
	}
	dm2, err := defect.Generate(4, 4, 0.2, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if (Options{Defects: dm2}).Key() != withMap {
		t.Error("identical defect maps produce different keys")
	}
	if (Options{DefectSeed: 9}).Key() == base {
		t.Error("defect seed not part of the options key")
	}
}

// TestFaultInjectionStageBoundaries drives each pipeline-stage hook and
// asserts the documented degraded response: a structured error wrapping
// faultinject.ErrInjected (or labeling.ErrInfeasible for the site-specific
// mode) — never a panic, never a wrong result.
func TestFaultInjectionStageBoundaries(t *testing.T) {
	nw := smallNetwork()
	for _, tc := range []struct {
		spec string
		want error
	}{
		{"bdd", faultinject.ErrInjected},
		{"bdd=timeout", faultinject.ErrInjected},
		{"labeling", faultinject.ErrInjected},
		{"labeling=infeasible", labeling.ErrInfeasible},
		{"xbar", faultinject.ErrInjected},
		{"place", faultinject.ErrInjected},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			t.Setenv(faultinject.EnvVar, tc.spec)
			opts := Options{Method: labeling.MethodHeuristic}
			if strings.HasPrefix(tc.spec, "place") {
				opts.DefectRate = 0.02
			}
			_, err := Synthesize(nw, opts)
			if !errors.Is(err, tc.want) {
				t.Fatalf("spec %q: error %v does not wrap %v", tc.spec, err, tc.want)
			}
		})
	}
	// And with injection off again, the same synthesis succeeds.
	t.Setenv(faultinject.EnvVar, "")
	if _, err := Synthesize(nw, Options{Method: labeling.MethodHeuristic, DefectRate: 0.02}); err != nil {
		if up := new(xbar.Unplaceable); !errors.As(err, &up) {
			t.Fatalf("clean run failed: %v", err)
		}
	}
}

// placedMargin scores a placed result the same way the margin-aware loop
// does: worst-case simulated voltage margin of the logical design bound to
// the defective array.
func placedMargin(t *testing.T, res *Result, dm *defect.Map, seed uint64) float64 {
	t.Helper()
	rep, err := spice.MarginContext(context.Background(), res.Design, res.Design.Eval,
		len(res.Design.VarNames), marginExhaustiveLimit, marginSamples,
		spice.Env{Model: spice.Default(), Defects: []*defect.Map{dm}, Placement: res.Placement}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return rep.MinOn - rep.MaxOff
}

// TestMarginAwarePlacementImprovesMargin is the before/after proof for the
// placement secondary objective. The defect map adds one spare wordline
// and bitline and sticks ON the two devices joining the spare bitline to
// the physical lines that, under the identity placement, carry the input
// wordline and the first output wordline — an analog sneak bridge straight
// around the logic. Identity remains perfectly *compatible* (the faults
// touch a spare bitline), so the plain repair loop happily returns it; the
// margin-aware loop must notice the collapsed margin and pick a binding
// that keeps the bridge away, at identical array size and semiperimeter.
func TestMarginAwarePlacementImprovesMargin(t *testing.T) {
	nw := smallNetwork()
	clean, err := Synthesize(nw, Options{Method: labeling.MethodHeuristic})
	if err != nil {
		t.Fatal(err)
	}
	d := clean.Design
	dm, err := defect.New(d.Rows+1, d.Cols+1)
	if err != nil {
		t.Fatal(err)
	}
	spareCol := d.Cols
	if err := dm.Set(d.Input.Index, spareCol, defect.StuckOn); err != nil {
		t.Fatal(err)
	}
	if err := dm.Set(d.Outputs[0].Index, spareCol, defect.StuckOn); err != nil {
		t.Fatal(err)
	}

	base := Options{Method: labeling.MethodHeuristic, Defects: dm, DefectSeed: 5}
	plain, err := Synthesize(nw, base)
	if err != nil {
		t.Fatal(err)
	}
	aware := base
	aware.MarginAware = true
	tuned, err := Synthesize(nw, aware)
	if err != nil {
		t.Fatal(err)
	}

	// Both paths must deliver verified hardware of identical dimensions.
	for _, res := range []*Result{plain, tuned} {
		if err := xbar.FormalVerify(res.Effective, nw, 0); err != nil {
			t.Fatalf("effective design fails formal verification: %v", err)
		}
	}
	if tuned.Design.Rows != plain.Design.Rows || tuned.Design.Cols != plain.Design.Cols {
		t.Fatalf("margin-aware changed the design dimensions: %dx%d vs %dx%d",
			tuned.Design.Rows, tuned.Design.Cols, plain.Design.Rows, plain.Design.Cols)
	}

	mPlain := placedMargin(t, plain, dm, base.DefectSeed)
	mAware := placedMargin(t, tuned, dm, base.DefectSeed)
	t.Logf("worst-case margin: plain %.4f, margin-aware %.4f", mPlain, mAware)
	if mAware < mPlain {
		t.Errorf("margin-aware placement is worse than plain: %.4f < %.4f", mAware, mPlain)
	}
	if mAware <= mPlain {
		t.Errorf("margin-aware placement did not improve on the sneak-bridged identity: plain %.4f, aware %.4f", mPlain, mAware)
	}

	// Determinism: the tuned placement is a pure function of its inputs.
	tuned2, err := Synthesize(nw, aware)
	if err != nil {
		t.Fatal(err)
	}
	if !equalPerm(tuned.Placement.Perms[0], tuned2.Placement.Perms[0]) ||
		!equalPerm(tuned.Placement.Perms[1], tuned2.Placement.Perms[1]) {
		t.Errorf("margin-aware placement not deterministic")
	}
}

// TestMarginAwareMatchesPlainOnExactSizeMaps pins Options.MarginAware's
// tie rule on generated maps, which are sized exactly to the design: there
// every candidate compiles to the same nodal network (spice nodes are
// logical, and every stuck device sits under a cell of its own state), so
// all scores tie and the margin-aware loop keeps the stream's first
// verified candidate, the plain loop's pick. Each placement runs under a
// deadline shorter than the exact stage's budget; a pair in which either
// run hits it is skipped, so no verdict depends on the wall clock.
func TestMarginAwareMatchesPlainOnExactSizeMaps(t *testing.T) {
	compared := 0
	for _, circuit := range []string{"ctrl", "cavlc"} {
		nw := bench.MustBuild(circuit)
		for _, k := range []int{2, 3} {
			clean, err := Synthesize(nw, Options{Method: labeling.MethodHeuristic, Layers: k})
			if err != nil {
				t.Fatal(err)
			}
			for _, rate := range []float64{0.001, 0.005} {
			seeds:
				for seed := uint64(1); seed <= 8; seed++ {
					opts := Options{Method: labeling.MethodHeuristic, Layers: k, DefectRate: rate, DefectSeed: seed}.Canonical()
					maps, err := opts.defectMaps(clean.Design)
					if err != nil {
						t.Fatal(err)
					}
					var got [2]string
					for i, aware := range []bool{false, true} {
						opts.MarginAware = aware
						r := &Result{Design: clean.Design, network: clean.network}
						ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
						err := r.placeWithRepair(ctx, maps, opts)
						cancel()
						var up *xbar.Unplaceable
						switch {
						case errors.Is(err, context.DeadlineExceeded):
							continue seeds
						case err == nil:
							got[i] = fmt.Sprintf("%s %v", r.Placement.Engine, r.Placement.Perms)
						case errors.As(err, &up):
							got[i] = err.Error()
						default:
							t.Fatalf("%s K=%d rate %g seed %d: untyped failure: %v", circuit, k, rate, seed, err)
						}
					}
					compared++
					if got[0] != got[1] {
						t.Errorf("%s K=%d rate %g seed %d: plain and margin-aware disagree:\nplain:  %.300s\naware:  %.300s",
							circuit, k, rate, seed, got[0], got[1])
					}
				}
			}
		}
	}
	t.Logf("%d of 64 pairs compared", compared)
	if compared == 0 {
		t.Fatal("every pair hit the deadline")
	}
}

// TestMarginAwareNoFaultsMatchesPlain pins the tie rule on a fault-free
// array: every binding there computes the same network, so all candidates
// tie and the margin-aware loop keeps identity, the plain loop's pick (and
// identical cache keys would be wasteful — Key must still differ, since
// the option changes behavior on other inputs).
func TestMarginAwareNoFaultsMatchesPlain(t *testing.T) {
	nw := smallNetwork()
	clean, err := Synthesize(nw, Options{Method: labeling.MethodHeuristic})
	if err != nil {
		t.Fatal(err)
	}
	dm, err := defect.New(clean.Design.Rows, clean.Design.Cols)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Method: labeling.MethodHeuristic, Defects: dm, DefectSeed: 1}
	plain, err := Synthesize(nw, base)
	if err != nil {
		t.Fatal(err)
	}
	aware := base
	aware.MarginAware = true
	tuned, err := Synthesize(nw, aware)
	if err != nil {
		t.Fatal(err)
	}
	if !equalPerm(plain.Placement.Perms[0], tuned.Placement.Perms[0]) ||
		!equalPerm(plain.Placement.Perms[1], tuned.Placement.Perms[1]) {
		t.Errorf("fault-free margin-aware placement diverged from plain: %v/%v vs %v/%v",
			tuned.Placement.Perms[0], tuned.Placement.Perms[1], plain.Placement.Perms[0], plain.Placement.Perms[1])
	}
	if base.Key() == aware.Key() {
		t.Error("MarginAware does not enter the options key")
	}
}
