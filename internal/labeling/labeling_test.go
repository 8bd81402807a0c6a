package labeling

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"compact/internal/faultinject"
	"compact/internal/graph"
)

func cycle(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

func path(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func randomGraph(rng *rand.Rand, n int, p float64) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// validLabels is Validate on the 2-layer lift of a VH-labeling.
func validLabels(p Problem, labels []Label) error {
	lo, hi := LiftLabels(labels)
	return Validate(p, 2, lo, hi)
}

// labelStats is ComputeStats on the 2-layer lift of a VH-labeling.
func labelStats(labels []Label) Stats {
	lo, hi := LiftLabels(labels)
	return ComputeStats(2, lo, hi)
}

// bruteBest enumerates all labelings and returns the best objective value.
func bruteBest(p Problem, gamma float64) float64 {
	n := p.G.N()
	labels := make([]Label, n)
	best := math.Inf(1)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if validLabels(p, labels) == nil {
				if obj := labelStats(labels).Objective(gamma); obj < best {
					best = obj
				}
			}
			return
		}
		for _, l := range []Label{V, H, VH} {
			labels[i] = l
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

func TestStatsAndObjective(t *testing.T) {
	labels := []Label{V, H, VH, V}
	st := labelStats(labels)
	if st.Rows != 2 || st.Cols != 3 || st.S != 5 || st.D != 3 {
		t.Errorf("stats = %+v", st)
	}
	if got := st.Objective(1); got != 5 {
		t.Errorf("gamma=1 objective = %v", got)
	}
	if got := st.Objective(0); got != 3 {
		t.Errorf("gamma=0 objective = %v", got)
	}
	if got := st.Objective(0.5); got != 4 {
		t.Errorf("gamma=0.5 objective = %v", got)
	}
}

func TestValidateRejects(t *testing.T) {
	p := Problem{G: path(2)}
	if err := validLabels(p, []Label{V, V}); err == nil {
		t.Error("V-V edge accepted")
	}
	if err := validLabels(p, []Label{H, H}); err == nil {
		t.Error("H-H edge accepted")
	}
	if err := validLabels(p, []Label{V, H}); err != nil {
		t.Errorf("V-H edge rejected: %v", err)
	}
	if err := validLabels(p, []Label{Unlabeled, H}); err == nil {
		t.Error("unlabeled node accepted")
	}
	if err := validLabels(p, []Label{V}); err == nil {
		t.Error("wrong length accepted")
	}
	pAlign := Problem{G: path(2), AlignH: []int{0}}
	if err := validLabels(pAlign, []Label{V, H}); err == nil {
		t.Error("alignment violation accepted")
	}
	if err := validLabels(pAlign, []Label{VH, V}); err != nil {
		t.Errorf("VH alignment rejected: %v", err)
	}
}

func TestBipartiteNoVH(t *testing.T) {
	// An even cycle needs no VH labels: S = n.
	p := Problem{G: cycle(8)}
	for _, m := range []Method{MethodOCT, MethodMIP, MethodHeuristic} {
		sol, err := SolveContext(context.Background(), p, Options{Method: m, Gamma: 1})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if sol.Stats.S != 8 {
			t.Errorf("%v: S = %d, want 8", m, sol.Stats.S)
		}
	}
}

func TestOddCycleOneVH(t *testing.T) {
	// An odd cycle needs exactly one VH: S = n + 1.
	p := Problem{G: cycle(7)}
	sol, err := SolveContext(context.Background(), p, Options{Method: MethodOCT})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.S != 8 || !sol.Optimal {
		t.Errorf("C7: S = %d (optimal=%v), want 8", sol.Stats.S, sol.Optimal)
	}
	nVH := 0
	for _, l := range sol.Labels {
		if l == VH {
			nVH++
		}
	}
	if nVH != 1 {
		t.Errorf("C7: %d VH labels, want 1", nVH)
	}
}

func TestMIPMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 15; trial++ {
		g := randomGraph(rng, 6, 0.4)
		p := Problem{G: g}
		for _, gamma := range []float64{0, 0.5, 1} {
			sol, err := SolveContext(context.Background(), p, Options{Method: MethodMIP, Gamma: gamma})
			if err != nil {
				t.Fatalf("trial %d γ=%v: %v", trial, gamma, err)
			}
			if !sol.Optimal {
				t.Fatalf("trial %d γ=%v: not optimal", trial, gamma)
			}
			want := bruteBest(p, gamma)
			if got := sol.Stats.Objective(gamma); math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d γ=%v: objective %v, want %v", trial, gamma, got, want)
			}
		}
	}
}

func TestMIPWithAlignmentMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 6, 0.35)
		p := Problem{G: g, AlignH: []int{0, g.N() - 1}}
		sol, err := SolveContext(context.Background(), p, Options{Method: MethodMIP, Gamma: 0.5})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := bruteBest(p, 0.5)
		if got := sol.Stats.Objective(0.5); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: objective %v, want %v", trial, got, want)
		}
	}
}

func TestOCTMatchesMIPAtGammaOne(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(rng, 8, 0.3)
		p := Problem{G: g}
		a, err := SolveContext(context.Background(), p, Options{Method: MethodOCT, Gamma: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := SolveContext(context.Background(), p, Options{Method: MethodMIP, Gamma: 1})
		if err != nil {
			t.Fatal(err)
		}
		if a.Optimal && b.Optimal && a.Stats.S != b.Stats.S {
			t.Fatalf("trial %d: OCT S=%d, MIP S=%d", trial, a.Stats.S, b.Stats.S)
		}
	}
}

func TestBalancingReducesMaxDimension(t *testing.T) {
	// The paper's Figure 6 scenario: two unbalanced bipartite components.
	// Component A: star with center + 4 leaves; component B: star with
	// center + 3 leaves. Orienting both stars the same way gives D=7;
	// opposite orientations give D close to S/2.
	g := graph.New(11)
	for leaf := 1; leaf <= 4; leaf++ {
		g.AddEdge(0, leaf)
	}
	for leaf := 7; leaf <= 10; leaf++ {
		g.AddEdge(6, leaf)
	}
	p := Problem{G: g}
	sol, err := SolveContext(context.Background(), p, Options{Method: MethodOCT, Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.S != 11 {
		t.Errorf("S = %d, want 11 (bipartite, no VH)", sol.Stats.S)
	}
	// Balanced orientation: one star contributes (1 H, 4 V), the other
	// (4 H, 1 V), isolated vertex 5 anywhere: D should be <= 6, not 9.
	if sol.Stats.D > 6 {
		t.Errorf("D = %d; balancing failed (want <= 6)", sol.Stats.D)
	}
	// MIP at γ=0 must reach the optimum D too.
	mip, err := SolveContext(context.Background(), p, Options{Method: MethodMIP, Gamma: 0})
	if err != nil {
		t.Fatal(err)
	}
	if mip.Stats.D > sol.Stats.D {
		t.Errorf("MIP D = %d worse than OCT balancing %d", mip.Stats.D, sol.Stats.D)
	}
}

func TestGammaTradeoff(t *testing.T) {
	// γ=1 minimizes S; γ=0 minimizes D, possibly with larger S
	// (the paper's Figure 7 effect). On random non-bipartite graphs check
	// the Pareto relationship holds.
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 8; trial++ {
		g := randomGraph(rng, 7, 0.4)
		p := Problem{G: g}
		s1, err := SolveContext(context.Background(), p, Options{Method: MethodMIP, Gamma: 1})
		if err != nil {
			t.Fatal(err)
		}
		s0, err := SolveContext(context.Background(), p, Options{Method: MethodMIP, Gamma: 0})
		if err != nil {
			t.Fatal(err)
		}
		if !s1.Optimal || !s0.Optimal {
			t.Fatalf("trial %d: not optimal", trial)
		}
		if s0.Stats.D > s1.Stats.D {
			t.Errorf("trial %d: γ=0 D (%d) worse than γ=1 D (%d)", trial, s0.Stats.D, s1.Stats.D)
		}
		if s1.Stats.S > s0.Stats.S {
			t.Errorf("trial %d: γ=1 S (%d) worse than γ=0 S (%d)", trial, s1.Stats.S, s0.Stats.S)
		}
	}
}

func TestAlignmentForcesH(t *testing.T) {
	// A triangle with all three nodes aligned: every node needs H, so at
	// least two nodes must be VH (H-H edges forbidden).
	g := cycle(3)
	p := Problem{G: g, AlignH: []int{0, 1, 2}}
	sol, err := SolveContext(context.Background(), p, Options{Method: MethodMIP, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		if l := sol.Labels[v]; l != H && l != VH {
			t.Errorf("node %d lacks H", v)
		}
	}
	if want := bruteBest(p, 1); sol.Stats.Objective(1) != want {
		t.Errorf("objective %v, want %v", sol.Stats.Objective(1), want)
	}
	// OCT method with alignment patching must also validate (Solve checks).
	if _, err := SolveContext(context.Background(), p, Options{Method: MethodOCT}); err != nil {
		t.Errorf("OCT with alignment: %v", err)
	}
}

func TestHeuristicLargeGraphValid(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	g := randomGraph(rng, 300, 0.01)
	p := Problem{G: g, AlignH: []int{0, 1, 2, 3}}
	sol, err := SolveContext(context.Background(), p, Options{Method: MethodHeuristic})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.S < g.N() {
		t.Errorf("S = %d < n = %d impossible", sol.Stats.S, g.N())
	}
}

func TestAutoMethodSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	small := Problem{G: randomGraph(rng, 10, 0.3)}
	sol, err := SolveContext(context.Background(), small, Options{Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Method != "mip" {
		t.Errorf("small graph method = %s, want mip", sol.Method)
	}
	big := Problem{G: randomGraph(rng, 50, 0.1)}
	sol2, err := SolveContext(context.Background(), big, Options{Gamma: 0.5, AutoExactLimit: 20})
	if err != nil {
		t.Fatal(err)
	}
	if sol2.Method != "oct" {
		t.Errorf("big graph method = %s, want oct", sol2.Method)
	}
}

func TestMIPTimeLimitFallsBackFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	g := randomGraph(rng, 40, 0.15)
	p := Problem{G: g}
	// The budget ends right after the entry check.
	sol, err := SolveContext(faultinject.Budget(1), p, Options{Method: MethodMIP, Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Must be valid (Solve validates) and carry trace data.
	if len(sol.Trace) == 0 {
		t.Error("no trace events")
	}
}

func TestTraceOnMIP(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	g := randomGraph(rng, 12, 0.35)
	sol, err := SolveContext(context.Background(), Problem{G: g}, Options{Method: MethodMIP, Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Trace) == 0 {
		t.Fatal("no trace")
	}
	last := sol.Trace[len(sol.Trace)-1]
	if sol.Optimal && last.Gap > 1e-9 {
		t.Errorf("optimal but final gap %v", last.Gap)
	}
}

func TestLabelStrings(t *testing.T) {
	if V.String() != "V" || H.String() != "H" || VH.String() != "VH" || Unlabeled.String() != "?" {
		t.Error("label strings wrong")
	}
	for _, m := range []Method{MethodAuto, MethodOCT, MethodMIP, MethodHeuristic} {
		if m.String() == "" {
			t.Error("empty method string")
		}
	}
}
