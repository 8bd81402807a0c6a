package ilp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"compact/internal/graph"
)

// vcModel builds the weighted vertex-cover ILP of g — the exact matrix
// shape (two nonzeros per row) the labeling pipeline feeds the solver.
func vcModel(g *graph.Graph, rng *rand.Rand) *Model {
	m := NewModel("vc")
	for v := 0; v < g.N(); v++ {
		w := 1.0
		if rng != nil {
			w = 1 + rng.Float64()*4
		}
		m.AddVar(fmt.Sprintf("x%d", v), 0, 1, Binary, w)
	}
	for _, e := range g.Edges() {
		m.AddConstr(fmt.Sprintf("e%d_%d", e[0], e[1]),
			[]Term{{e[0], 1}, {e[1], 1}}, GE, 1)
	}
	return m
}

// TestRevisedVsDenseVertexCoverLP is the sparse-vs-dense agreement
// property: on random vertex-cover relaxations — including branch-and-
// bound-style bound overrides that fix random subsets of variables, some
// of which make the LP infeasible — the revised simplex must solve without
// error and report the same status and (when optimal) the same objective
// as the dense oracle. A numerical failure of the revised core fails the
// test; production has no fallback that would absorb it.
func TestRevisedVsDenseVertexCoverLP(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 80; trial++ {
		n := 5 + rng.Intn(30)
		p := []float64{0.1, 0.3, 0.6}[rng.Intn(3)]
		g := graph.Random(n, p, uint64(trial)*7+1)
		mod := vcModel(g, rng)
		lbs := append([]float64(nil), mod.lb...)
		ubs := append([]float64(nil), mod.ub...)
		// Emulate a branch & bound node: fix a random subset.
		for v := 0; v < n; v++ {
			switch rng.Intn(6) {
			case 0:
				lbs[v] = 1
			case 1:
				ubs[v] = 0
			}
		}
		want, err := solveLPDense(context.Background(), mod, lbs, ubs)
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		got, err := solveLP(context.Background(), mod, lbs, ubs)
		if err != nil {
			t.Fatalf("trial %d: revised: %v", trial, err)
		}
		if got.status != want.status {
			t.Fatalf("trial %d (n=%d p=%.1f): dense status %v, revised %v",
				trial, n, p, want.status, got.status)
		}
		if want.status == StatusOptimal && math.Abs(got.obj-want.obj) > 1e-6 {
			t.Fatalf("trial %d: dense obj %v, revised %v", trial, want.obj, got.obj)
		}
	}
}

// TestRevisedVsDenseGeneralLP widens the agreement property beyond
// vertex-cover shape: random dense-ish LPs with mixed senses, negative
// lower bounds and equality rows.
func TestRevisedVsDenseGeneralLP(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		nVars := 2 + rng.Intn(10)
		nCons := 1 + rng.Intn(10)
		mod := NewModel("rnd")
		for j := 0; j < nVars; j++ {
			lo := float64(rng.Intn(5)) - 2
			hi := lo + float64(rng.Intn(6))
			mod.AddVar(fmt.Sprintf("x%d", j), lo, hi, Continuous, rng.NormFloat64())
		}
		for c := 0; c < nCons; c++ {
			var terms []Term
			for j := 0; j < nVars; j++ {
				if rng.Intn(3) == 0 {
					terms = append(terms, Term{j, math.Round(rng.NormFloat64() * 3)})
				}
			}
			if len(terms) == 0 {
				continue
			}
			sense := []Sense{LE, GE, EQ}[rng.Intn(3)]
			mod.AddConstr(fmt.Sprintf("c%d", c), terms, sense, math.Round(rng.NormFloat64()*5))
		}
		want, err := solveLPDense(context.Background(), mod, mod.lb, mod.ub)
		if err != nil {
			continue // dense iteration limit etc. — nothing to compare against
		}
		got, err := solveLP(context.Background(), mod, mod.lb, mod.ub)
		if err != nil {
			t.Fatalf("trial %d: revised: %v", trial, err)
		}
		if got.status != want.status {
			t.Fatalf("trial %d: dense status %v, revised %v", trial, want.status, got.status)
		}
		if want.status == StatusOptimal && math.Abs(got.obj-want.obj) > 1e-5 {
			t.Fatalf("trial %d: dense obj %v, revised %v", trial, want.obj, got.obj)
		}
	}
}

// TestRevisedDegenerateBeale is the anti-cycling regression: Beale's
// classic example cycles forever under naive Dantzig pivoting on
// degenerate vertices. The stall-window Bland's-rule fallback must
// terminate it at the optimum (objective -1/20).
func TestRevisedDegenerateBeale(t *testing.T) {
	m := NewModel("beale")
	x1 := m.AddVar("x1", 0, math.Inf(1), Continuous, -0.75)
	x2 := m.AddVar("x2", 0, math.Inf(1), Continuous, 150)
	x3 := m.AddVar("x3", 0, math.Inf(1), Continuous, -0.02)
	x4 := m.AddVar("x4", 0, math.Inf(1), Continuous, 6)
	m.AddConstr("r1", []Term{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, LE, 0)
	m.AddConstr("r2", []Term{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, LE, 0)
	m.AddConstr("r3", []Term{{x3, 1}}, LE, 1)
	res, err := solveLP(context.Background(), m, m.lb, m.ub)
	if err != nil {
		t.Fatalf("revised on Beale: %v", err)
	}
	if res.status != StatusOptimal {
		t.Fatalf("status %v, want optimal", res.status)
	}
	if math.Abs(res.obj-(-0.05)) > 1e-9 {
		t.Fatalf("objective %v, want -0.05", res.obj)
	}
}

// TestRevisedHighlyDegenerate stacks duplicated rows (massive primal
// degeneracy, the shape that provokes stalling) and checks the revised
// simplex still terminates at the dense oracle's optimum.
func TestRevisedHighlyDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		g := graph.Random(12, 0.4, uint64(trial)+100)
		mod := vcModel(g, nil)
		// Duplicate every edge constraint 4 more times.
		for _, e := range g.Edges() {
			for k := 0; k < 4; k++ {
				mod.AddConstr(fmt.Sprintf("dup%d_%d_%d", e[0], e[1], k),
					[]Term{{e[0], 1}, {e[1], 1}}, GE, 1)
			}
		}
		_ = rng
		want, err := solveLPDense(context.Background(), mod, mod.lb, mod.ub)
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		got, err := solveLP(context.Background(), mod, mod.lb, mod.ub)
		if err != nil {
			t.Fatalf("trial %d: revised: %v", trial, err)
		}
		if got.status != want.status || math.Abs(got.obj-want.obj) > 1e-6 {
			t.Fatalf("trial %d: dense (%v, %v), revised (%v, %v)",
				trial, want.status, want.obj, got.status, got.obj)
		}
	}
}

// TestParallelBBMatchesSerial solves random vertex-cover MIPs with one and
// four workers; the optimal objective (and optimality status) must agree.
// Run under -race this doubles as the parallel search's race test.
func TestParallelBBMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 12; trial++ {
		g := graph.Random(10+rng.Intn(10), 0.35, uint64(trial)*13+2)
		mod := vcModel(g, rng)
		serial, err := solve(context.Background(), mod, Options{}, &searchProbe{workers: 1})
		if err != nil {
			t.Fatalf("trial %d: serial: %v", trial, err)
		}
		par, err := solve(context.Background(), mod, Options{}, &searchProbe{workers: 4})
		if err != nil {
			t.Fatalf("trial %d: parallel: %v", trial, err)
		}
		if serial.Status != StatusOptimal || par.Status != StatusOptimal {
			t.Fatalf("trial %d: status serial %v, parallel %v", trial, serial.Status, par.Status)
		}
		if math.Abs(serial.Obj-par.Obj) > 1e-9 {
			t.Fatalf("trial %d: obj serial %v, parallel %v", trial, serial.Obj, par.Obj)
		}
		if err := mod.Feasible(par.X, 1e-6, false); err != nil {
			t.Fatalf("trial %d: parallel solution infeasible: %v", trial, err)
		}
	}
}

// TestParallelBBSharedBestKnown exercises the external-cutoff path under
// concurrency: with BestKnown pinned at the known optimum the parallel
// search must stay race-clean and never report a bound above it.
func TestParallelBBSharedBestKnown(t *testing.T) {
	g := graph.Random(16, 0.4, 42)
	mod := vcModel(g, rand.New(rand.NewSource(1)))
	ref, err := solve(context.Background(), mod, Options{}, &searchProbe{workers: 1})
	if err != nil || ref.Status != StatusOptimal {
		t.Fatalf("reference solve: %v / %v", err, ref.Status)
	}
	sol, err := solve(context.Background(), mod, Options{
		BestKnown: func() float64 { return ref.Obj },
	}, &searchProbe{workers: 4})
	if err != nil {
		t.Fatalf("parallel with BestKnown: %v", err)
	}
	if sol.Bound > ref.Obj+1e-6 {
		t.Fatalf("bound %v above the external incumbent %v", sol.Bound, ref.Obj)
	}
	if sol.X != nil {
		if err := mod.Feasible(sol.X, 1e-6, false); err != nil {
			t.Fatalf("returned solution infeasible: %v", err)
		}
	}
}

// TestParallelBBMaxNodes checks the node budget holds exactly under
// concurrent expansion: the check-then-increment runs under the search
// lock, so N workers cannot overshoot the probe's maxNodes.
func TestParallelBBMaxNodes(t *testing.T) {
	mod := benchKnapsack(25, 3)
	sol, err := solve(context.Background(), mod, Options{}, &searchProbe{workers: 4, maxNodes: 5})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if sol.Nodes > 5 {
		t.Fatalf("expanded %d nodes, budget 5", sol.Nodes)
	}
}
