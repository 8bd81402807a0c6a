package spice

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"compact/internal/bdd"
	"compact/internal/labeling"
	"compact/internal/logic"
	"compact/internal/xbar"
)

// synth3 runs the layered pipeline with natural variable order:
// BDD -> graph -> K-labeling -> MapStack.
func synth3(t *testing.T, nw *logic.Network, k int) *xbar.Design {
	t.Helper()
	m, roots, err := bdd.BuildNetwork(nw, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := xbar.FromBDD(m, roots, nw.OutputNames)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := labeling.SolveK(context.Background(), bg.Problem(true), k, labeling.Options{
		Method: labeling.MethodHeuristic, Gamma: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := xbar.MapStack(bg, sol.K, sol.Lo, sol.Hi)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSimulate3DLiftMatches2D pins the 2D/stack consistency: a 2D
// labeling lifted to layer intervals and mapped as a two-layer stack
// (xbar.MapStack) must reproduce the voltages and the margin report of
// the 2D mapping (xbar.Map) bit for bit.
func TestSimulate3DLiftMatches2D(t *testing.T) {
	nw := fig2()
	m, roots, err := bdd.BuildNetwork(nw, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := xbar.FromBDD(m, roots, nw.OutputNames)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := labeling.SolveContext(context.Background(), bg.Problem(true), labeling.Options{Method: labeling.MethodMIP, Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := xbar.Map(bg, sol.Labels)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := labeling.LiftLabels(sol.Labels)
	d3, err := xbar.MapStack(bg, 2, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	model := Default()
	for a := 0; a < 8; a++ {
		in := []bool{a&1 != 0, a&2 != 0, a&4 != 0}
		assign := levelAssign(d2, nw, in)
		v2, err := Simulate(d2, assign, model)
		if err != nil {
			t.Fatal(err)
		}
		v3, err := Simulate(d3, assign, model)
		if err != nil {
			t.Fatal(err)
		}
		if len(v2) != len(v3) {
			t.Fatalf("output counts differ: %d vs %d", len(v2), len(v3))
		}
		for o := range v2 {
			if math.Float64bits(v2[o]) != math.Float64bits(v3[o]) {
				t.Errorf("assignment %03b output %d: Map %v vs MapStack %v", a, o, v2[o], v3[o])
			}
		}
	}

	ctx := context.Background()
	for _, limit := range []int{3, 0} { // exhaustive, then sampled
		m2, err := MarginContext(ctx, d2, d2.Eval, 3, limit, 16, Env{Model: model}, 1)
		if err != nil {
			t.Fatal(err)
		}
		m3, err := MarginContext(ctx, d3, d3.Eval, 3, limit, 16, Env{Model: model}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if m2.Checked != m3.Checked || m2.Separable != m3.Separable ||
			math.Float64bits(m2.MinOn) != math.Float64bits(m3.MinOn) ||
			math.Float64bits(m2.MaxOff) != math.Float64bits(m3.MaxOff) {
			t.Errorf("exhaustive limit %d: Map margin %+v vs MapStack %+v", limit, m2, m3)
		}
	}
}

func TestMargin3DSeparableAcrossK(t *testing.T) {
	nw := fig2()
	for k := 2; k <= 4; k++ {
		d := synth3(t, nw, k)
		rep, err := MarginContext(context.Background(), d, nw.Eval, 3, 8, 0, Env{Model: Default()}, 1)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if rep.Checked != 8 {
			t.Errorf("K=%d: checked %d assignments, want 8", k, rep.Checked)
		}
		if !rep.Separable {
			t.Errorf("K=%d not separable: minOn=%v maxOff=%v", k, rep.MinOn, rep.MaxOff)
		}
	}
}

func TestMonteCarlo3DDeterministic(t *testing.T) {
	nw := fig2()
	d := synth3(t, nw, 3)
	v := Variation{SigmaOn: 0.5, SigmaOff: 0.5}
	run := func(workers int) MonteCarloReport {
		rep, err := MonteCarlo3DContext(context.Background(), d, nw.Eval, 3, Default(), v,
			MonteCarloOptions{Trials: 8, Vectors: 8, Seed: 42, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(1), run(4)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("report depends on worker count:\n%+v\n%+v", a, b)
	}
	if a.Trials != 8 || !a.Exhaustive {
		t.Errorf("unexpected shape: %+v", a)
	}
}

// TestMonteCarlo3DCriticalLayers forces failing trials with an absurd
// spread and checks the per-plane attribution: every critical cell must
// name a real device of a real plane, worst first.
func TestMonteCarlo3DCriticalLayers(t *testing.T) {
	nw := fig2()
	d := synth3(t, nw, 3)
	model := Default()
	model.ROff = model.ROn * 4 // almost no contrast: variation flips reads
	v := Variation{SigmaOn: 1.5, SigmaOff: 1.5}
	rep, err := MonteCarlo3DContext(context.Background(), d, nw.Eval, 3, model, v,
		MonteCarloOptions{Trials: 16, Vectors: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailTrials == 0 {
		t.Fatal("expected failing trials under near-zero contrast")
	}
	if len(rep.Critical) == 0 {
		t.Fatal("failing trials but no critical cells")
	}
	for _, c := range rep.Critical {
		if c.Layer < 0 || c.Layer >= len(d.Planes) {
			t.Errorf("critical cell plane %d outside 0..%d", c.Layer, len(d.Planes)-1)
		} else if c.Row < 0 || c.Row >= d.Widths[c.Layer] || c.Col < 0 || c.Col >= d.Widths[c.Layer+1] {
			t.Errorf("critical cell (%d,%d,%d) outside plane %dx%d",
				c.Layer, c.Row, c.Col, d.Widths[c.Layer], d.Widths[c.Layer+1])
		}
		if c.Flips <= 0 {
			t.Errorf("critical cell with %d flips", c.Flips)
		}
	}
	for i := 1; i < len(rep.Critical); i++ {
		if rep.Critical[i].Flips > rep.Critical[i-1].Flips {
			t.Errorf("critical cells not sorted by flips: %+v", rep.Critical)
		}
	}
}

func TestCompile3TooLarge(t *testing.T) {
	d, err := xbar.NewDesign([]int{maxNodes + 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	_, cerr := Simulate(d, nil, Default())
	if !errors.Is(cerr, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", cerr)
	}
}

func TestMonteCarlo3DDeadline(t *testing.T) {
	nw := fig2()
	d := synth3(t, nw, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MonteCarlo3DContext(ctx, d, nw.Eval, 3, Default(), Variation{},
		MonteCarloOptions{Trials: 4, Vectors: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
