package core

import (
	"math/rand"
	"testing"
	"time"

	"compact/internal/bench"
	"compact/internal/labeling"
	"compact/internal/logic"
)

func TestFig2Example(t *testing.T) {
	b := logic.NewBuilder("fig2")
	a, bb, c := b.Input("a"), b.Input("b"), b.Input("c")
	b.Output("f", b.Or(b.And(a, bb), c))
	nw := b.Build()
	res, err := Synthesize(nw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(10, 0, 1); err != nil {
		t.Fatal(err)
	}
	st := res.Stats()
	if st.Rows == 0 || st.Cols == 0 {
		t.Errorf("degenerate design %+v", st)
	}
	if res.BDDNodes != 5 { // a, b, c, 0, 1
		t.Errorf("BDD nodes = %d, want 5", res.BDDNodes)
	}
	if res.SynthTime <= 0 {
		t.Error("no synth time recorded")
	}
	if res.Network() != nw {
		t.Error("network not carried")
	}
}

func TestPipelineMethodsAgreeOnValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 8; trial++ {
		nw := randomNetwork(rng, 6, 25)
		for _, m := range []labeling.Method{labeling.MethodOCT, labeling.MethodMIP, labeling.MethodHeuristic} {
			res, err := Synthesize(nw, Options{Method: m})
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, m, err)
			}
			if err := res.Verify(10, 0, 1); err != nil {
				t.Fatalf("trial %d %v: %v", trial, m, err)
			}
		}
	}
}

func TestSeparateROBDDsLargerThanSBDD(t *testing.T) {
	// Shared logic across outputs: SBDD must not exceed merged ROBDDs in
	// nodes or semiperimeter (Table III's claim).
	b := logic.NewBuilder("share")
	xs := b.Inputs("x", 6)
	common := b.Xor(xs[0], xs[1], xs[2], xs[3])
	b.Output("f", b.And(common, xs[4]))
	b.Output("g", b.Or(common, xs[5]))
	b.Output("h", b.Xor(common, xs[4], xs[5]))
	nw := b.Build()

	sb, err := Synthesize(nw, Options{Method: labeling.MethodHeuristic})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Synthesize(nw, Options{Method: labeling.MethodHeuristic, BDDKind: SeparateROBDDs})
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.Verify(10, 0, 1); err != nil {
		t.Fatalf("sbdd: %v", err)
	}
	if err := rb.Verify(10, 0, 1); err != nil {
		t.Fatalf("robdds: %v", err)
	}
	if sb.BDDNodes > rb.BDDNodes {
		t.Errorf("SBDD nodes %d > merged ROBDD nodes %d", sb.BDDNodes, rb.BDDNodes)
	}
}

func TestROBDDModeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 8; trial++ {
		nw := randomNetwork(rng, 6, 20)
		res, err := Synthesize(nw, Options{BDDKind: SeparateROBDDs, Method: labeling.MethodHeuristic})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := res.Verify(10, 0, 1); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestGammaZeroNeedsGammaSet(t *testing.T) {
	if (Options{}).gamma() != 0.5 {
		t.Error("default gamma not 0.5")
	}
	if (Options{GammaSet: true}).gamma() != 0 {
		t.Error("explicit gamma 0 ignored")
	}
	if (Options{Gamma: 1}).gamma() != 1 {
		t.Error("gamma 1 ignored")
	}
}

func TestSiftOption(t *testing.T) {
	// Comparator with bad natural order: sifting must not break anything
	// and should not increase the BDD size.
	b := logic.NewBuilder("eq")
	xs := b.Inputs("x", 5)
	ys := b.Inputs("y", 5)
	var eqs []int
	for i := range xs {
		eqs = append(eqs, b.Xnor(xs[i], ys[i]))
	}
	b.Output("eq", b.And(eqs...))
	nw := b.Build()
	plain, err := Synthesize(nw, Options{VarOrder: naturalOrder(10), Method: labeling.MethodHeuristic})
	if err != nil {
		t.Fatal(err)
	}
	sifted, err := Synthesize(nw, Options{VarOrder: naturalOrder(10), Sift: true, Method: labeling.MethodHeuristic})
	if err != nil {
		t.Fatal(err)
	}
	if sifted.BDDNodes > plain.BDDNodes {
		t.Errorf("sifting grew BDD: %d -> %d", plain.BDDNodes, sifted.BDDNodes)
	}
	if err := sifted.Verify(10, 0, 1); err != nil {
		t.Fatal(err)
	}
}

func naturalOrder(n int) []int {
	o := make([]int, n)
	for i := range o {
		o[i] = i
	}
	return o
}

func TestNoAlignOption(t *testing.T) {
	// Without alignment the labeling may put roots on bitlines, which Map
	// rejects — OR the mapping succeeds with roots that happen to be H.
	// Either way Synthesize must not return an invalid design silently.
	b := logic.NewBuilder("na")
	x, y := b.Input("x"), b.Input("y")
	b.Output("f", b.Xor(x, y))
	nw := b.Build()
	res, err := Synthesize(nw, Options{NoAlign: true, Method: labeling.MethodMIP})
	if err != nil {
		t.Skipf("mapping rejected unaligned labeling (acceptable): %v", err)
	}
	if err := res.Verify(10, 0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestBenchmarkSmoke(t *testing.T) {
	// End-to-end on small real benchmarks with the heuristic labeler.
	for _, name := range []string{"ctrl", "cavlc", "int2float", "dec"} {
		nw := bench.MustBuild(name)
		res, err := Synthesize(nw, Options{Method: labeling.MethodHeuristic})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := res.Verify(11, 300, 7); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := res.Stats()
		// S must be between n (ideal) and 2n+2 (all-VH).
		n := res.Graph.NumNodes()
		if st.S < n || st.S > 2*n+2 {
			t.Errorf("%s: S = %d outside [n, 2n+2] = [%d, %d]", name, st.S, n, 2*n+2)
		}
	}
}

func TestExactMIPOnCtrl(t *testing.T) {
	if testing.Short() {
		t.Skip("MIP on ctrl takes a few seconds")
	}
	nw := bench.MustBuild("ctrl")
	res, err := Synthesize(nw, Options{Method: labeling.MethodMIP, TimeLimit: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(7, 0, 1); err != nil {
		t.Fatal(err)
	}
	t.Logf("ctrl: %dx%d S=%d D=%d optimal=%v in %v",
		res.Stats().Rows, res.Stats().Cols, res.Stats().S, res.Stats().D,
		res.Labeling.Optimal, res.SynthTime)
}

// TestExactMIPWarmNodes pins the branch & bound fast path on the Eq. 4
// models the exact benchmark solves: every node LP of ctrl and cavlc is
// reoptimized warm from its parent's basis (no cold node solves).
func TestExactMIPWarmNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("exact MIP on cavlc takes a few seconds")
	}
	for _, name := range []string{"ctrl", "cavlc"} {
		res, err := Synthesize(bench.MustBuild(name), Options{Method: labeling.MethodMIP})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lab := res.Labeling
		if !lab.Optimal || lab.Method != "mip" || len(lab.Trace) == 0 {
			t.Fatalf("%s: method %q optimal=%v, %d trace events", name, lab.Method, lab.Optimal, len(lab.Trace))
		}
		if nodes := lab.Trace[len(lab.Trace)-1].Nodes; nodes == 0 {
			t.Fatalf("%s: no branch & bound node expanded", name)
		}
		if lab.ColdNodes != 0 {
			t.Errorf("%s: %d cold node LPs, want 0", name, lab.ColdNodes)
		}
	}
}

func randomNetwork(rng *rand.Rand, nIn, nGates int) *logic.Network {
	b := logic.NewBuilder("rand")
	var pool []int
	for i := 0; i < nIn; i++ {
		pool = append(pool, b.Input(string(rune('a'+i))))
	}
	for g := 0; g < nGates; g++ {
		pick := func() int { return pool[rng.Intn(len(pool))] }
		var id int
		switch rng.Intn(5) {
		case 0:
			id = b.And(pick(), pick())
		case 1:
			id = b.Or(pick(), pick())
		case 2:
			id = b.Not(pick())
		case 3:
			id = b.Xor(pick(), pick())
		default:
			id = b.Mux(pick(), pick(), pick())
		}
		pool = append(pool, id)
	}
	b.Output("f", pool[len(pool)-1])
	b.Output("g", pool[len(pool)-2])
	return b.Build()
}

// TestFormalVerifyBenchmarks proves every bundled circuit's heuristic
// design equivalent to its network. The proof builds its BDD in the
// synthesis variable order, where even the 256-input arbiter closes.
func TestFormalVerifyBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes all 17 bundled circuits")
	}
	var proof time.Duration
	for _, name := range bench.Names() {
		nw := bench.MustBuild(name)
		res, err := Synthesize(nw, Options{Method: labeling.MethodHeuristic})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		start := time.Now()
		if err := res.FormalVerify(8_000_000); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		proof += time.Since(start)
	}
	t.Logf("proofs of %d circuits took %v in total", len(bench.Names()), proof)
}
