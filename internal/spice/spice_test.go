package spice

import (
	"context"
	"math"
	"testing"

	"compact/internal/bdd"
	"compact/internal/labeling"
	"compact/internal/logic"
	"compact/internal/xbar"
)

func synth(t *testing.T, nw *logic.Network) *xbar.Design {
	t.Helper()
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
	d, err := xbar.Map(bg, sol.Labels)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func fig2() *logic.Network {
	b := logic.NewBuilder("fig2")
	a, bb, c := b.Input("a"), b.Input("b"), b.Input("c")
	b.Output("f", b.Or(b.And(a, bb), c))
	return b.Build()
}

func TestModelValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Default()
	bad.ROff = bad.ROn
	if err := bad.Validate(); err == nil {
		t.Error("ROff == ROn accepted")
	}
	bad2 := Default()
	bad2.RSense = 0
	if err := bad2.Validate(); err == nil {
		t.Error("zero RSense accepted")
	}
}

func TestFig2Voltages(t *testing.T) {
	nw := fig2()
	d := synth(t, nw)
	model := Default()
	// a=1,b=1,c=0: f=1 -> strong output voltage.
	vOn, err := Simulate(d, levelAssign(d, nw, []bool{true, true, false}), model)
	if err != nil {
		t.Fatal(err)
	}
	// a=0,b=0,c=0: f=0 -> near-zero output voltage.
	vOff, err := Simulate(d, levelAssign(d, nw, []bool{false, false, false}), model)
	if err != nil {
		t.Fatal(err)
	}
	if vOn[0] <= vOff[0] {
		t.Errorf("on voltage %v not above off voltage %v", vOn[0], vOff[0])
	}
	if vOn[0] <= 0 || vOn[0] >= model.Vin {
		t.Errorf("on voltage %v outside (0, Vin)", vOn[0])
	}
	if vOff[0] < 0 {
		t.Errorf("negative off voltage %v", vOff[0])
	}
}

// levelAssign maps a network-input-order assignment to BDD-level order.
// With natural order they coincide; keep the helper for clarity.
func levelAssign(d *xbar.Design, nw *logic.Network, in []bool) []bool {
	out := make([]bool, len(d.VarNames))
	for lv, name := range d.VarNames {
		out[lv] = in[nw.InputIndex(name)]
	}
	return out
}

func TestMarginSeparable(t *testing.T) {
	nw := fig2()
	d := synth(t, nw)
	rep, err := MarginContext(context.Background(), d, nw.Eval, 3, 8, 0, Env{Model: Default()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 8 {
		t.Errorf("checked %d assignments, want 8", rep.Checked)
	}
	if !rep.Separable {
		t.Errorf("fig2 not separable: minOn=%v maxOff=%v", rep.MinOn, rep.MaxOff)
	}
	// With a healthy ROn/ROff ratio the margin should be wide.
	if rep.MinOn < 2*rep.MaxOff {
		t.Errorf("margin too thin: minOn=%v maxOff=%v", rep.MinOn, rep.MaxOff)
	}
}

func TestMarginDegradedDevices(t *testing.T) {
	// With ROff barely above ROn, separability should collapse on any
	// non-trivial design.
	nw := fig2()
	d := synth(t, nw)
	model := Default()
	model.ROff = model.ROn * 1.01
	rep, err := MarginContext(context.Background(), d, nw.Eval, 3, 8, 0, Env{Model: model}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Separable && rep.MinOn > 1.5*rep.MaxOff {
		t.Errorf("degenerate devices still cleanly separable: %+v", rep)
	}
}

func TestMultiOutputLoading(t *testing.T) {
	// Multiple sense resistors load the array; all outputs must still be
	// separable.
	b := logic.NewBuilder("mo")
	x, y, z := b.Input("x"), b.Input("y"), b.Input("z")
	b.Output("f", b.And(x, y))
	b.Output("g", b.Or(y, z))
	b.Output("h", b.Xor(x, z))
	nw := b.Build()
	d := synth(t, nw)
	rep, err := MarginContext(context.Background(), d, nw.Eval, 3, 8, 0, Env{Model: Default()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Separable {
		t.Errorf("multi-output design not separable: %+v", rep)
	}
}

func TestDenseVsCGAgree(t *testing.T) {
	nw := fig2()
	d := synth(t, nw)
	model := Default()
	assign := levelAssign(d, nw, []bool{true, false, true})
	// Build the same system twice via the shared assembler and solve with
	// both backends directly (Simulate picks one by size).
	net, err := compile(d, Env{Model: model})
	if err != nil {
		t.Fatal(err)
	}
	g1, b1 := net.system(assign, nil)
	g2, b2 := net.system(assign, nil)
	x1, err := solveDense(g1, b1)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := solveCG(g2, b2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-6*math.Max(1, math.Abs(x1[i])) {
			t.Errorf("node %d: dense %v vs CG %v", i, x1[i], x2[i])
		}
	}
}

func TestSolveDenseKnownSystem(t *testing.T) {
	// 2x2: [2 -1; -1 2] x = [1; 0] -> x = [2/3, 1/3].
	g := [][]float64{{2, -1}, {-1, 2}}
	b := []float64{1, 0}
	x, err := solveDense(g, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2.0/3) > 1e-12 || math.Abs(x[1]-1.0/3) > 1e-12 {
		t.Errorf("x = %v", x)
	}
}

func TestSimulateAgreesWithLogicalEval(t *testing.T) {
	// Electrical threshold classification must match union-find evaluation
	// on a moderate design: pick threshold between MaxOff and MinOn.
	b := logic.NewBuilder("maj")
	x, y, z := b.Input("a"), b.Input("b"), b.Input("c")
	b.Output("maj", b.Or(b.And(x, y), b.And(x, z), b.And(y, z)))
	nw := b.Build()
	d := synth(t, nw)
	rep, err := MarginContext(context.Background(), d, nw.Eval, 3, 8, 0, Env{Model: Default()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Separable {
		t.Fatalf("majority gate not separable: %+v", rep)
	}
	thr := (rep.MinOn + rep.MaxOff) / 2
	for a := 0; a < 8; a++ {
		in := []bool{a&1 != 0, a&2 != 0, a&4 != 0}
		volts, err := Simulate(d, levelAssign(d, nw, in), Default())
		if err != nil {
			t.Fatal(err)
		}
		logical := d.Eval(levelAssign(d, nw, in))
		for o := range volts {
			if (volts[o] > thr) != logical[o] {
				t.Errorf("assignment %03b output %d: electrical %v vs logical %v", a, o, volts[o], logical[o])
			}
		}
	}
}

func TestMonteCarloHealthyDevices(t *testing.T) {
	nw := fig2()
	d := synth(t, nw)
	rep, err := MonteCarloContext(context.Background(), d, nw.Eval, 3, Env{Model: HighContrast()},
		Variation{SigmaOn: 0.1, SigmaOff: 0.1}, MonteCarloOptions{Trials: 30, Vectors: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Yield < 0.95 {
		t.Errorf("tight variation should barely affect yield: %+v", rep)
	}
	if rep.WorstMinOn <= 0 {
		t.Errorf("worst on-voltage non-positive: %+v", rep)
	}
}

func TestMonteCarloHugeVariationKillsYield(t *testing.T) {
	nw := fig2()
	d := synth(t, nw)
	base := Default()
	base.ROff = base.ROn * 3 // almost no contrast to begin with
	rep, err := MonteCarloContext(context.Background(), d, nw.Eval, 3, Env{Model: base},
		Variation{SigmaOn: 1.5, SigmaOff: 1.5}, MonteCarloOptions{Trials: 40, Vectors: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Yield > 0.9 {
		t.Errorf("extreme variation should hurt yield: %+v", rep)
	}
}

func TestMonteCarloErrors(t *testing.T) {
	nw := fig2()
	d := synth(t, nw)
	run := func(v Variation, opts MonteCarloOptions) error {
		_, err := MonteCarloContext(context.Background(), d, nw.Eval, 3, Env{Model: Default()}, v, opts)
		return err
	}
	if err := run(Variation{}, MonteCarloOptions{Trials: 10, Vectors: -1, Seed: 1}); err == nil {
		t.Error("negative vectors accepted")
	}
	if err := run(Variation{}, MonteCarloOptions{Trials: -1, Vectors: 8, Seed: 1}); err == nil {
		t.Error("negative trials accepted")
	}
	if err := run(Variation{SigmaOn: -0.5}, MonteCarloOptions{Trials: 10, Vectors: 8, Seed: 1}); err == nil {
		t.Error("negative sigma accepted")
	}
}
