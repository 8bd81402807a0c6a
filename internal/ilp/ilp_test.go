package ilp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"compact/internal/faultinject"
)

func TestLPSimple2D(t *testing.T) {
	// min -x - 2y s.t. x + y <= 4, x <= 3, y <= 2, x,y >= 0.
	// Optimum at (2, 2): obj -6.
	m := NewModel("lp2d")
	x := m.AddVar("x", 0, 3, Continuous, -1)
	y := m.AddVar("y", 0, 2, Continuous, -2)
	m.AddConstr("cap", []Term{{x, 1}, {y, 1}}, LE, 4)
	res, err := solveLP(context.Background(), m, m.lb, m.ub)
	if err != nil {
		t.Fatal(err)
	}
	if res.status != StatusOptimal {
		t.Fatalf("status = %v", res.status)
	}
	if math.Abs(res.obj-(-6)) > 1e-6 {
		t.Errorf("obj = %v, want -6 (x=%v)", res.obj, res.x)
	}
	if err := m.Feasible(res.x, 1e-6, true); err != nil {
		t.Error(err)
	}
}

func TestLPEquality(t *testing.T) {
	// min x + y s.t. x + 2y = 4, x,y in [0, 10]. Optimum (0,2): obj 2.
	m := NewModel("eq")
	x := m.AddVar("x", 0, 10, Continuous, 1)
	y := m.AddVar("y", 0, 10, Continuous, 1)
	m.AddConstr("eq", []Term{{x, 1}, {y, 2}}, EQ, 4)
	res, err := solveLP(context.Background(), m, m.lb, m.ub)
	if err != nil {
		t.Fatal(err)
	}
	if res.status != StatusOptimal || math.Abs(res.obj-2) > 1e-6 {
		t.Errorf("status %v obj %v, want optimal 2", res.status, res.obj)
	}
}

func TestLPGE(t *testing.T) {
	// min 3x + 2y s.t. x + y >= 5, x >= 1. Optimum (1,4): obj 11.
	m := NewModel("ge")
	x := m.AddVar("x", 1, 100, Continuous, 3)
	y := m.AddVar("y", 0, 100, Continuous, 2)
	m.AddConstr("c", []Term{{x, 1}, {y, 1}}, GE, 5)
	res, err := solveLP(context.Background(), m, m.lb, m.ub)
	if err != nil {
		t.Fatal(err)
	}
	if res.status != StatusOptimal || math.Abs(res.obj-11) > 1e-6 {
		t.Errorf("status %v obj %v x %v, want optimal 11", res.status, res.obj, res.x)
	}
}

func TestLPInfeasible(t *testing.T) {
	m := NewModel("inf")
	x := m.AddVar("x", 0, 1, Continuous, 1)
	m.AddConstr("c", []Term{{x, 1}}, GE, 2)
	res, err := solveLP(context.Background(), m, m.lb, m.ub)
	if err != nil {
		t.Fatal(err)
	}
	if res.status != StatusInfeasible {
		t.Errorf("status = %v, want infeasible", res.status)
	}
}

func TestLPUnbounded(t *testing.T) {
	m := NewModel("unb")
	x := m.AddVar("x", 0, math.Inf(1), Continuous, -1)
	y := m.AddVar("y", 0, 5, Continuous, 0)
	m.AddConstr("c", []Term{{x, -1}, {y, 1}}, LE, 3)
	res, err := solveLP(context.Background(), m, m.lb, m.ub)
	if err != nil {
		t.Fatal(err)
	}
	if res.status != StatusUnbounded {
		t.Errorf("status = %v, want unbounded", res.status)
	}
}

func TestLPNegativeLowerBounds(t *testing.T) {
	// min x s.t. x >= -3 (bound), x + y >= -2, y in [-1, 1].
	m := NewModel("neg")
	x := m.AddVar("x", -3, 10, Continuous, 1)
	y := m.AddVar("y", -1, 1, Continuous, 0)
	m.AddConstr("c", []Term{{x, 1}, {y, 1}}, GE, -2)
	res, err := solveLP(context.Background(), m, m.lb, m.ub)
	if err != nil {
		t.Fatal(err)
	}
	if res.status != StatusOptimal || math.Abs(res.obj-(-3)) > 1e-6 {
		t.Errorf("obj = %v (x=%v), want -3", res.obj, res.x)
	}
}

func TestLPDegenerate(t *testing.T) {
	// Classic degenerate LP; must terminate (Bland fallback).
	m := NewModel("degen")
	x1 := m.AddVar("x1", 0, math.Inf(1), Continuous, -0.75)
	x2 := m.AddVar("x2", 0, math.Inf(1), Continuous, 150)
	x3 := m.AddVar("x3", 0, math.Inf(1), Continuous, -0.02)
	x4 := m.AddVar("x4", 0, math.Inf(1), Continuous, 6)
	m.AddConstr("c1", []Term{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, LE, 0)
	m.AddConstr("c2", []Term{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, LE, 0)
	m.AddConstr("c3", []Term{{x3, 1}}, LE, 1)
	res, err := solveLP(context.Background(), m, m.lb, m.ub)
	if err != nil {
		t.Fatal(err)
	}
	if res.status != StatusOptimal || math.Abs(res.obj-(-0.05)) > 1e-6 {
		t.Errorf("Beale cycle LP: status %v obj %v, want optimal -0.05", res.status, res.obj)
	}
}

func TestMIPKnapsack(t *testing.T) {
	// max 10a + 13b + 7c + 11d s.t. 3a+4b+2c+3d <= 7  (minimize negative)
	// Optimum: b + d? 4+3=7, value 24; a+c+d = 3+2+3=8 no; a+b=7 value 23;
	// c+d+a = 8 no; b+c = 6 value 20; d+b = 24 wins. check a+c=5 value 17.
	m := NewModel("knap")
	vals := []float64{10, 13, 7, 11}
	wts := []float64{3, 4, 2, 3}
	var terms []Term
	for i, v := range vals {
		x := m.AddVar(string(rune('a'+i)), 0, 1, Binary, -v)
		terms = append(terms, Term{x, wts[i]})
	}
	m.AddConstr("w", terms, LE, 7)
	sol, err := SolveContext(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || math.Abs(sol.Obj-(-24)) > 1e-6 {
		t.Errorf("status %v obj %v X %v, want optimal -24", sol.Status, sol.Obj, sol.X)
	}
	if err := m.Feasible(sol.X, 1e-6, false); err != nil {
		t.Error(err)
	}
}

func TestMIPIntegerRoundingMatters(t *testing.T) {
	// min -x - y s.t. 2x + 2y <= 3, x,y binary. LP opt = -1.5; MIP opt = -1.
	m := NewModel("round")
	x := m.AddVar("x", 0, 1, Binary, -1)
	y := m.AddVar("y", 0, 1, Binary, -1)
	m.AddConstr("c", []Term{{x, 2}, {y, 2}}, LE, 3)
	sol, err := SolveContext(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || math.Abs(sol.Obj-(-1)) > 1e-6 {
		t.Errorf("obj = %v, want -1", sol.Obj)
	}
}

func TestMIPInfeasible(t *testing.T) {
	m := NewModel("mipinf")
	x := m.AddVar("x", 0, 1, Binary, 1)
	y := m.AddVar("y", 0, 1, Binary, 1)
	m.AddConstr("c1", []Term{{x, 1}, {y, 1}}, GE, 3)
	sol, err := SolveContext(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestMIPGeneralInteger(t *testing.T) {
	// min -3x - 4y, 5x + 8y <= 24, x,y integer >= 0. Candidates:
	// x=4,y=0: -12; x=0,y=3: -12; x=1,y=2: -11; x=3,y=1: -13 (15+8=23 ok).
	m := NewModel("gi")
	x := m.AddVar("x", 0, 10, Integer, -3)
	y := m.AddVar("y", 0, 10, Integer, -4)
	m.AddConstr("c", []Term{{x, 5}, {y, 8}}, LE, 24)
	sol, err := SolveContext(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || math.Abs(sol.Obj-(-13)) > 1e-6 {
		t.Errorf("obj = %v X %v, want -13", sol.Obj, sol.X)
	}
}

// bruteBinary enumerates all binary assignments and returns the optimum.
func bruteBinary(m *Model) (float64, bool) {
	n := m.NumVars()
	best := math.Inf(1)
	found := false
	x := make([]float64, n)
	for mask := 0; mask < 1<<n; mask++ {
		for j := 0; j < n; j++ {
			x[j] = float64((mask >> j) & 1)
		}
		if m.Feasible(x, 1e-9, false) == nil {
			if v := m.Objective(x); v < best {
				best = v
				found = true
			}
		}
	}
	return best, found
}

func TestMIPRandomBinaryVsBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(7)
		nc := 2 + rng.Intn(4)
		m := NewModel("rand")
		for j := 0; j < n; j++ {
			m.AddVar("x", 0, 1, Binary, float64(rng.Intn(21)-10))
		}
		for c := 0; c < nc; c++ {
			var terms []Term
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.6 {
					terms = append(terms, Term{j, float64(rng.Intn(11) - 5)})
				}
			}
			if len(terms) == 0 {
				continue
			}
			sense := []Sense{LE, GE}[rng.Intn(2)]
			m.AddConstr("c", terms, sense, float64(rng.Intn(9)-4))
		}
		sol, err := SolveContext(context.Background(), m, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, feasible := bruteBinary(m)
		if !feasible {
			if sol.Status != StatusInfeasible {
				t.Fatalf("trial %d: solver says %v but model infeasible", trial, sol.Status)
			}
			continue
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v, want optimal", trial, sol.Status)
		}
		if math.Abs(sol.Obj-want) > 1e-6 {
			t.Fatalf("trial %d: obj %v, want %v", trial, sol.Obj, want)
		}
		if err := m.Feasible(sol.X, 1e-6, false); err != nil {
			t.Fatalf("trial %d: infeasible solution: %v", trial, err)
		}
	}
}

func TestMIPIncumbentPriming(t *testing.T) {
	// Provide a feasible (suboptimal) incumbent; solver must return
	// something at least as good.
	m := NewModel("prime")
	x := m.AddVar("x", 0, 1, Binary, -5)
	y := m.AddVar("y", 0, 1, Binary, -4)
	m.AddConstr("c", []Term{{x, 1}, {y, 1}}, LE, 1)
	sol, err := SolveContext(context.Background(), m, Options{Incumbent: []float64{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || math.Abs(sol.Obj-(-5)) > 1e-6 {
		t.Errorf("obj = %v, want -5", sol.Obj)
	}
}

func TestMIPTimeLimitReturnsIncumbent(t *testing.T) {
	// The budget ends right after the entry check, inside the root LP:
	// the primed incumbent is returned.
	rng := rand.New(rand.NewSource(9))
	m := NewModel("big")
	n := 40
	inc := make([]float64, n)
	var terms []Term
	for j := 0; j < n; j++ {
		m.AddVar("x", 0, 1, Binary, -float64(1+rng.Intn(50)))
		terms = append(terms, Term{j, float64(1 + rng.Intn(20))})
	}
	m.AddConstr("cap", terms, LE, 60)
	sol, err := SolveContext(faultinject.Budget(1), m, Options{Incumbent: inc})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusFeasible && sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.X == nil {
		t.Fatal("no incumbent returned")
	}
	if err := m.Feasible(sol.X, 1e-6, false); err != nil {
		t.Error(err)
	}
	if sol.Gap < 0 || sol.Gap > 1 {
		t.Errorf("gap = %v", sol.Gap)
	}
}

func TestTraceMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := NewModel("trace")
	n := 14
	var terms []Term
	for j := 0; j < n; j++ {
		m.AddVar("x", 0, 1, Binary, -float64(1+rng.Intn(30)))
		terms = append(terms, Term{j, float64(1 + rng.Intn(10))})
	}
	m.AddConstr("cap", terms, LE, 25)
	for c := 0; c < 4; c++ {
		var ts []Term
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.3 {
				ts = append(ts, Term{j, 1})
			}
		}
		if len(ts) > 1 {
			m.AddConstr("side", ts, LE, float64(len(ts)-1))
		}
	}
	sol, err := SolveContext(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	if len(sol.Trace) < 2 {
		t.Fatalf("trace too short: %d", len(sol.Trace))
	}
	for i := 1; i < len(sol.Trace); i++ {
		if sol.Trace[i].Incumbent > sol.Trace[i-1].Incumbent+1e-9 {
			t.Errorf("incumbent increased at %d", i)
		}
		if sol.Trace[i].Bound < sol.Trace[i-1].Bound-1e-9 {
			t.Errorf("bound decreased at %d: %v -> %v", i, sol.Trace[i-1].Bound, sol.Trace[i].Bound)
		}
	}
	last := sol.Trace[len(sol.Trace)-1]
	if last.Gap > 1e-9 {
		t.Errorf("final gap = %v, want 0", last.Gap)
	}
}

func TestMergedDuplicateTerms(t *testing.T) {
	m := NewModel("dup")
	x := m.AddVar("x", 0, 10, Continuous, 1)
	m.AddConstr("c", []Term{{x, 1}, {x, 2}}, GE, 6) // 3x >= 6
	res, err := solveLP(context.Background(), m, m.lb, m.ub)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.obj-2) > 1e-6 {
		t.Errorf("obj = %v, want 2", res.obj)
	}
}

func TestFeasibleChecks(t *testing.T) {
	m := NewModel("f")
	m.AddVar("x", 0, 1, Binary, 1)
	if err := m.Feasible([]float64{0.5}, 1e-9, false); err == nil {
		t.Error("fractional binary accepted")
	}
	if err := m.Feasible([]float64{0.5}, 1e-9, true); err != nil {
		t.Errorf("relaxed check rejected: %v", err)
	}
	if err := m.Feasible([]float64{2}, 1e-9, true); err == nil {
		t.Error("bound violation accepted")
	}
	if err := m.Feasible([]float64{0, 0}, 1e-9, true); err == nil {
		t.Error("wrong-length vector accepted")
	}
}

func TestStatusStrings(t *testing.T) {
	for _, s := range []Status{StatusOptimal, StatusFeasible, StatusInfeasible, StatusUnbounded, StatusNoSolution} {
		if s.String() == "" {
			t.Errorf("empty status string for %d", s)
		}
	}
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "==" {
		t.Error("sense strings wrong")
	}
}

func TestMaxNodesRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := NewModel("mn")
	n := 24
	var terms []Term
	for j := 0; j < n; j++ {
		m.AddVar("x", 0, 1, Binary, -float64(1+rng.Intn(40)))
		terms = append(terms, Term{j, float64(1 + rng.Intn(12))})
	}
	m.AddConstr("cap", terms, LE, 40)
	inc := make([]float64, n)
	sol, err := solve(context.Background(), m, Options{Incumbent: inc}, &searchProbe{maxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Nodes > 3 {
		t.Errorf("processed %d nodes, cap 3", sol.Nodes)
	}
	if sol.X == nil {
		t.Error("incumbent lost")
	}
}

func TestObjectiveGridDetection(t *testing.T) {
	m := NewModel("grid")
	m.AddVar("a", 0, 1, Binary, 0.5)
	m.AddVar("b", 0, 5, Integer, 1.5)
	if g := objectiveGrid(m); math.Abs(g-0.5) > 1e-9 {
		t.Errorf("grid = %v, want 0.5", g)
	}
	m2 := NewModel("cont")
	m2.AddVar("a", 0, 1, Binary, 0.5)
	m2.AddVar("c", 0, 1, Continuous, 0.25)
	if g := objectiveGrid(m2); g != 0 {
		t.Errorf("grid with continuous obj var = %v, want 0", g)
	}
	m3 := NewModel("zero")
	m3.AddVar("a", 0, 1, Binary, 0)
	m3.AddVar("d", 0, 1, Continuous, 0) // zero-coeff continuous is fine
	if g := objectiveGrid(m3); g != 0 {
		t.Errorf("all-zero objective grid = %v, want 0", g)
	}
}
