package core

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"compact/internal/bdd"
	"compact/internal/bench"
	"compact/internal/defect"
	"compact/internal/labeling"
	"compact/internal/spice"
	"compact/internal/xbar"
	"compact/internal/xbar3d"
)

// epflTrio is the K-equivalence regression set: the three EPFL control
// benchmarks the paper's Table I reports and the flow3d experiment sweeps.
var epflTrio = []string{"ctrl", "cavlc", "int2float"}

// TestLayeredK2Equivalence pins the K <= 2 reduction on the EPFL trio:
// SolveK at K=2 must be semiperimeter-identical to the 2D solver, and
// Map3D of its solution must equal the lifted 2D design cell for cell
// under the V/H <-> layer mapping. MethodHeuristic keeps both pipelines
// deterministic.
func TestLayeredK2Equivalence(t *testing.T) {
	for _, name := range epflTrio {
		nw := bench.MustBuild(name)
		m, roots, err := bdd.BuildNetwork(nw, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		bg, err := xbar.FromBDD(m, roots, nw.OutputNames)
		if err != nil {
			t.Fatal(err)
		}
		lopts := labeling.Options{Method: labeling.MethodHeuristic, Gamma: 0.5}
		sol2, err := labeling.SolveContext(context.Background(), bg.Problem(true), lopts)
		if err != nil {
			t.Fatalf("%s: 2D solve: %v", name, err)
		}
		solK, err := labeling.SolveK(context.Background(), bg.Problem(true), 2, lopts)
		if err != nil {
			t.Fatalf("%s: SolveK(2): %v", name, err)
		}
		if solK.Stats.S != sol2.Stats.S {
			t.Errorf("%s: K=2 semiperimeter %d differs from 2D %d", name, solK.Stats.S, sol2.Stats.S)
		}
		// K=1 clamps to 2 and must land on the same solution.
		sol1, err := labeling.SolveK(context.Background(), bg.Problem(true), 1, lopts)
		if err != nil {
			t.Fatalf("%s: SolveK(1): %v", name, err)
		}
		if sol1.Stats.S != sol2.Stats.S {
			t.Errorf("%s: K=1 semiperimeter %d differs from 2D %d", name, sol1.Stats.S, sol2.Stats.S)
		}

		d2, err := xbar.Map(bg, sol2.Labels)
		if err != nil {
			t.Fatalf("%s: 2D map: %v", name, err)
		}
		d3, err := xbar3d.Map3D(bg, solK)
		if err != nil {
			t.Fatalf("%s: Map3D: %v", name, err)
		}
		if !reflect.DeepEqual(d3.Widths, d2.Widths) {
			t.Fatalf("%s: K=2 widths %v differ from 2D %v", name, d3.Widths, d2.Widths)
		}
		if !reflect.DeepEqual(d3.Planes[0], d2.Planes[0]) {
			t.Errorf("%s: K=2 cells differ from the 2D design", name)
		}
		if d3.Input != d2.Input || !reflect.DeepEqual(d3.Outputs, d2.Outputs) {
			t.Errorf("%s: K=2 ports differ: input %v vs %v, outputs %v vs %v",
				name, d3.Input, d2.Input, d3.Outputs, d2.Outputs)
		}
		if !reflect.DeepEqual(d3.OutputNames, d2.OutputNames) {
			t.Errorf("%s: K=2 output names differ", name)
		}
	}
}

// TestSynthesizeLayered runs the full Layers>=3 pipeline on the EPFL trio
// and composes both verification tiers over every result.
func TestSynthesizeLayered(t *testing.T) {
	for _, name := range epflTrio {
		nw := bench.MustBuild(name)
		res, err := Synthesize(nw, Options{Layers: 3, Method: labeling.MethodHeuristic})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Design == nil || res.Design3D != res.Design || res.Labeling == nil {
			t.Fatalf("%s: layered result missing Design (and its Design3D mirror) or Labeling", name)
		}
		if res.Labeling.K != 3 || res.Labeling.Labels != nil {
			t.Errorf("%s: layered labeling has K=%d and VH labels %v, want K=3 and none", name, res.Labeling.K, res.Labeling.Labels)
		}
		if got := res.Design3D.K(); got != 3 {
			t.Errorf("%s: design has %d wire layers, want 3", name, got)
		}
		if res.Labeling.Stats.S != res.Design3D.Stats().S {
			t.Errorf("%s: labeling S %d differs from design S %d",
				name, res.Labeling.Stats.S, res.Design3D.Stats().S)
		}
		if err := res.Verify(14, 512, 1); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if err := res.FormalVerify(0); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestLayeredSMonotone asserts the FLOW-3D payoff the bench axis reports:
// on the trio, the heuristic's semiperimeter never grows with K and
// strictly shrinks by K=3 on circuits with enough wordlines to fold.
func TestLayeredSMonotone(t *testing.T) {
	improved := 0
	for _, name := range epflTrio {
		nw := bench.MustBuild(name)
		prev := -1
		s2 := 0
		for _, k := range []int{2, 3, 4} {
			res, err := Synthesize(nw, Options{Layers: k, Method: labeling.MethodHeuristic})
			if err != nil {
				t.Fatalf("%s K=%d: %v", name, k, err)
			}
			s := 0
			if k <= 2 {
				s = res.Design.Stats().S
				s2 = s
			} else {
				s = res.Design3D.Stats().S
			}
			if prev >= 0 && s > prev {
				t.Errorf("%s: S grew from %d to %d at K=%d", name, prev, s, k)
			}
			if k == 3 && s < s2 {
				improved++
			}
			prev = s
		}
	}
	if improved < 2 {
		t.Errorf("S strictly improved at K=3 on %d of %d circuits, want >= 2", improved, len(epflTrio))
	}
}

// TestSynthesizeLayeredWithDefects runs the layered verified-repair loop on
// a deterministically placeable configuration. The rate is modest on
// purpose: generated maps cover the stack exactly (no spare wires), so
// dense fault sets are often genuinely unplaceable — the same regime as
// the 2D pipeline on arrays this size, and a typed failure there, not a
// test subject.
func TestSynthesizeLayeredWithDefects(t *testing.T) {
	nw := bench.MustBuild("ctrl")
	res, err := Synthesize(nw, Options{
		Layers: 3, Method: labeling.MethodHeuristic,
		DefectRate: 0.005, DefectSeed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement == nil || res.Effective == nil {
		t.Fatal("defect-aware layered synthesis missing Placement/Effective")
	}
	if len(res.Defects) != res.Design.K()-1 {
		t.Fatalf("%d defect maps for %d device planes", len(res.Defects), res.Design.K()-1)
	}
	if res.RepairAttempts < 1 {
		t.Errorf("RepairAttempts %d < 1", res.RepairAttempts)
	}
	// The effective design is what the faulty array computes; it must agree
	// with the network (the repair loop already verified it — re-check from
	// the outside).
	bad := res.Effective.VerifyAgainst64(nw.Eval64, nw.NumInputs(), 14, 512, 1)
	if bad != nil {
		t.Errorf("effective layered design disagrees with the network on %v", bad)
	}
}

// TestLayeredPlacementRegression runs the layered verified-repair loop on
// the exact-size maps (rate 0.5%) the former per-plane backtracking search
// placed: ctrl at K=3 and K=4 with seeds 6 and 10, cavlc at K=3 and K=4
// with seed 10. The shared engine must place every one, and each effective
// stack must prove equivalent to the network.
func TestLayeredPlacementRegression(t *testing.T) {
	cases := []struct {
		circuit string
		seeds   []uint64
	}{{"ctrl", []uint64{6, 10}}, {"cavlc", []uint64{10}}}
	for _, tc := range cases {
		nw := bench.MustBuild(tc.circuit)
		for _, k := range []int{3, 4} {
			for _, seed := range tc.seeds {
				res, err := Synthesize(nw, Options{
					Layers: k, Method: labeling.MethodHeuristic,
					DefectRate: 0.005, DefectSeed: seed,
				})
				if err != nil {
					t.Errorf("%s K=%d seed %d: %v", tc.circuit, k, seed, err)
					continue
				}
				if res.Placement == nil {
					t.Fatalf("%s K=%d seed %d: no placement", tc.circuit, k, seed)
				}
				if err := xbar3d.FormalVerify3D(res.Effective, nw, 0); err != nil {
					t.Errorf("%s K=%d seed %d: effective stack: %v", tc.circuit, k, seed, err)
				}
			}
		}
	}
}

// TestLayeredMarginAwarePlacement runs margin-aware placement on a stack:
// ctrl at K=3 on generated per-plane maps (rate 0.05%, seed 1), which the
// plain loop places. Each candidate is scored on the placed
// physical stack, so the loop must return a placement whose effective
// stack proves equivalent to the network, and whose margin simulates.
func TestLayeredMarginAwarePlacement(t *testing.T) {
	nw := bench.MustBuild("ctrl")
	res, err := SynthesizeContext(context.Background(), nw, Options{
		Layers: 3, Method: labeling.MethodHeuristic,
		DefectRate: 0.0005, DefectSeed: 1, MarginAware: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement == nil || res.Effective == nil || len(res.Defects) != 2 {
		t.Fatalf("margin-aware layered synthesis: placement %v, effective %v, %d maps",
			res.Placement, res.Effective != nil, len(res.Defects))
	}
	if err := xbar.FormalVerify(res.Effective, nw, 0); err != nil {
		t.Errorf("effective stack: %v", err)
	}
	env := spice.Env{Model: spice.Default(), Defects: res.Defects, Placement: res.Placement}
	if _, err := spice.MarginContext(context.Background(), res.Design, nw.Eval, nw.NumInputs(), 6, 32, env, 1); err != nil {
		t.Errorf("margin of the placed stack: %v", err)
	}
}

func TestLayeredOptionsValidation(t *testing.T) {
	dm, err := defect.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts Options
		ok   bool
	}{
		{"default", Options{}, true},
		{"two", Options{Layers: 2}, true},
		{"max", Options{Layers: labeling.MaxLayers}, true},
		{"negative", Options{Layers: -1}, false},
		{"over-cap", Options{Layers: labeling.MaxLayers + 1}, false},
		{"partition", Options{Layers: 3, Partition: true, MaxRows: 8, MaxCols: 8}, false},
		{"margin-aware", Options{Layers: 3, MarginAware: true}, true},
		{"explicit-defects", Options{Layers: 3, Defects: dm}, false},
		{"defect-rate", Options{Layers: 3, DefectRate: 0.05}, true},
	}
	for _, tc := range cases {
		err := tc.opts.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid options accepted", tc.name)
		}
	}
}

func TestLayeredOptionsKey(t *testing.T) {
	// Layers 0, 1 and 2 canonicalize identically; 3 must change the key.
	k0 := Options{}.Key()
	if (Options{Layers: 1}).Key() != k0 || (Options{Layers: 2}).Key() != k0 {
		t.Error("Layers 0/1/2 do not share a cache key")
	}
	if (Options{Layers: 3}).Key() == k0 {
		t.Error("Layers 3 shares the 2D cache key")
	}
}

func TestLayeredView(t *testing.T) {
	nw := bench.MustBuild("ctrl")
	res, err := Synthesize(nw, Options{
		Layers: 3, Method: labeling.MethodHeuristic,
		DefectRate: 0.005, DefectSeed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	v := res.View()
	if v.Design != nil || v.Design3D == nil {
		t.Fatal("layered view must carry design3d, not design")
	}
	st := res.Design3D.Stats()
	if v.Crossbar.Layers != 3 || !reflect.DeepEqual(v.Crossbar.LayerWidths, st.Widths) {
		t.Errorf("crossbar view %+v does not reflect the stack %v", v.Crossbar, st.Widths)
	}
	if v.Crossbar.S != st.S || v.Crossbar.Rows != st.Rows || v.Crossbar.Cols != st.Cols {
		t.Errorf("crossbar view footprint %+v differs from stats %+v", v.Crossbar, st)
	}
	if v.Labeling.S != res.Labeling.Stats.S || v.Labeling.Method == "" {
		t.Errorf("labeling view %+v does not reflect the K-solution", v.Labeling)
	}
	if v.Placement == nil || len(v.Placement.LayerPerms) != 3 {
		t.Fatalf("placement view %+v missing layer perms", v.Placement)
	}
	if len(v.Placement.RowPerm) != 0 || len(v.Placement.ColPerm) != 0 {
		t.Errorf("layered placement view carries 2D perms: %+v", v.Placement)
	}
	if !strings.Contains(v.Placement.DefectsDigest, ",") {
		t.Errorf("layered defects digest %q is not per-plane", v.Placement.DefectsDigest)
	}

	// The view is the compactd wire body: it must serialize, and the
	// embedded design must round-trip into an equivalent evaluator.
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Design3D *xbar3d.Design3D `json:"design3d"`
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Design3D == nil {
		t.Fatal("round-tripped view lost design3d")
	}
	if bad := back.Design3D.VerifyAgainst64(nw.Eval64, nw.NumInputs(), 14, 256, 1); bad != nil {
		t.Errorf("round-tripped design3d disagrees with the network on %v", bad)
	}
}

// TestLayeredStatsFootprint pins Result.Stats for a K-layer stack: the
// footprint of ctrl's heuristic three-layer stack, the figure the public
// Result.Stats and the examples report.
func TestLayeredStatsFootprint(t *testing.T) {
	res, err := Synthesize(bench.MustBuild("ctrl"), Options{Layers: 3, Method: labeling.MethodHeuristic})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats()
	if st.K != 3 || st.S != 61 || st.S != st.Rows+st.Cols {
		t.Fatalf("ctrl K=3 stats %+v, want a 3-layer footprint with S = 61", st)
	}
	if st.Rows != max(st.Widths[0], st.Widths[2]) || st.Cols != st.Widths[1] {
		t.Fatalf("footprint %dx%d is not the widest even and odd layers of %v", st.Rows, st.Cols, st.Widths)
	}
}
