package ilp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"compact/internal/graph"
)

// eq4Model builds the paper's Eq. 4 VH-labeling MIP of g with edge
// helpers: xV/xH per node, one orientation helper per edge, and the
// integer max dimension D, minimizing γ·S + (1−γ)·D. It mirrors the
// labeling package's model (minus its cuts), the shape branch & bound
// spends its time on in the exact pipeline.
func eq4Model(g *graph.Graph, gamma float64) *Model {
	m := NewModel("eq4")
	n := g.N()
	xV, xH := make([]int, n), make([]int, n)
	for i := 0; i < n; i++ {
		xV[i] = m.AddVar(fmt.Sprintf("xV%d", i), 0, 1, Binary, gamma)
		xH[i] = m.AddVar(fmt.Sprintf("xH%d", i), 0, 1, Binary, gamma)
	}
	edges := g.Edges()
	xE := make([]int, len(edges))
	for k := range edges {
		xE[k] = m.AddVar(fmt.Sprintf("e%d", k), 0, 1, Binary, 0)
	}
	d := m.AddVar("D", 0, float64(n), Integer, 1-gamma)
	for i := 0; i < n; i++ {
		m.AddConstr("lbl", []Term{{xV[i], 1}, {xH[i], 1}}, GE, 1)
	}
	for k, e := range edges {
		i, j := e[0], e[1]
		m.AddConstr("conVH", []Term{{xV[i], 1}, {xH[j], 1}, {xE[k], 2}}, GE, 2)
		m.AddConstr("conHV", []Term{{xH[i], 1}, {xV[j], 1}, {xE[k], -2}}, GE, 0)
	}
	rTerms := []Term{{d, 1}}
	cTerms := []Term{{d, 1}}
	for i := 0; i < n; i++ {
		rTerms = append(rTerms, Term{xH[i], -1})
		cTerms = append(cTerms, Term{xV[i], -1})
	}
	m.AddConstr("DgeR", rTerms, GE, 0)
	m.AddConstr("DgeC", cTerms, GE, 0)
	return m
}

// isWarmFallback reports the errors after which branch & bound re-solves
// a node cold: legitimate outcomes of the warm path, not disagreements.
func isWarmFallback(err error) bool {
	return errors.Is(err, errWarmFailed) || errors.Is(err, errSingularBasis) || errors.Is(err, errIterLimit)
}

// diveWarmVsCold replays a branch & bound dive on mod: each step picks a
// node basis (the last optimal one, or the root's), tightens or resets
// bounds on variables chosen by pick, and reoptimizes warm, installing
// that basis's factor as a node served from a slot does. Warm, cold
// (solveLP, the revised core alone) and dense (solveLPDense) must agree on
// status and, when optimal, on objective within 1e-6. Any error of the
// cold solve fails the test: no second solver stands behind it. With
// strict, a warm fallback is a failure too. pick returns (variable, fix) where fix 0 sets ub=0, 1 sets
// lb=1 and 2 restores the root bounds of every variable. It reports the
// number of warm solves compared.
func diveWarmVsCold(t *testing.T, mod *Model, steps int, pick func() (int, int), strict bool) int {
	t.Helper()
	ctx := context.Background()
	lbs := append([]float64(nil), mod.lb...)
	ubs := append([]float64(nil), mod.ub...)
	root, err := solveLP(ctx, mod, lbs, ubs)
	if err != nil || root.status != StatusOptimal {
		t.Fatalf("root: %v / %v", err, root.status)
	}
	tmpl, err := lowerSparse(mod, lbs, ubs)
	if err != nil {
		t.Fatalf("template: %v", err)
	}
	basis, fac := root.basis, root.factor
	compared := 0
	for step := 0; step < steps; step++ {
		v, fix := pick()
		switch fix {
		case 0:
			ubs[v] = math.Min(ubs[v], math.Max(mod.lb[v], 0))
		case 1:
			lbs[v] = math.Max(lbs[v], math.Min(mod.ub[v], 1))
		default:
			copy(lbs, mod.lb)
			copy(ubs, mod.ub)
			basis, fac = root.basis, root.factor
		}
		warm, werr := tmpl.solveWarm(ctx, lbs, ubs, basis, fac)
		cold, cerr := solveLP(ctx, mod, lbs, ubs)
		dense, derr := solveLPDense(ctx, mod, lbs, ubs)
		if cerr != nil || derr != nil {
			t.Fatalf("step %d: cold %v, dense %v", step, cerr, derr)
		}
		if cold.status != dense.status ||
			(cold.status == StatusOptimal && math.Abs(cold.obj-dense.obj) > 1e-6) {
			t.Fatalf("step %d: cold (%v, %v) vs dense (%v, %v)", step, cold.status, cold.obj, dense.status, dense.obj)
		}
		if werr != nil {
			if strict || !isWarmFallback(werr) {
				t.Fatalf("step %d: warm: %v", step, werr)
			}
			continue
		}
		compared++
		if warm.status != cold.status {
			t.Fatalf("step %d: warm status %v, cold %v (obj %v)", step, warm.status, cold.status, cold.obj)
		}
		if warm.status != StatusOptimal {
			// An infeasible node ends the dive: back to the root bounds.
			copy(lbs, mod.lb)
			copy(ubs, mod.ub)
			basis, fac = root.basis, root.factor
			continue
		}
		if math.Abs(warm.obj-cold.obj) > 1e-6 {
			t.Fatalf("step %d: warm obj %v, cold %v", step, warm.obj, cold.obj)
		}
		if err := mod.Feasible(warm.x, 1e-6, true); err != nil {
			t.Fatalf("step %d: warm solution violates the model: %v", step, err)
		}
		basis, fac = warm.basis, warm.factor
	}
	return compared
}

// TestWarmVsColdVertexCover replays random fix sequences on random
// vertex-cover relaxations.
func TestWarmVsColdVertexCover(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	total := 0
	for trial := 0; trial < 25; trial++ {
		n := 6 + rng.Intn(14)
		g := graph.Random(n, []float64{0.1, 0.25, 0.5}[rng.Intn(3)], uint64(trial)*5+3)
		mod := vcModel(g, rng)
		total += diveWarmVsCold(t, mod, 30, func() (int, int) {
			if rng.Intn(12) == 0 {
				return 0, 2
			}
			return rng.Intn(n), rng.Intn(2)
		}, true)
	}
	if total < 500 {
		t.Fatalf("only %d warm solves compared", total)
	}
}

// TestWarmVsColdEq4 replays random fix sequences on the Eq. 4 labeling
// relaxation of random graphs, fixing labels, helpers and D alike.
func TestWarmVsColdEq4(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	total := 0
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(9)
		g := graph.Random(n, []float64{0.15, 0.3, 0.5}[rng.Intn(3)], uint64(trial)*7+1)
		mod := eq4Model(g, []float64{0.5, 0.9, 1}[rng.Intn(3)])
		nv := mod.NumVars()
		total += diveWarmVsCold(t, mod, 30, func() (int, int) {
			if rng.Intn(12) == 0 {
				return 0, 2
			}
			return rng.Intn(nv), rng.Intn(2)
		}, true)
	}
	if total < 400 {
		t.Fatalf("only %d warm solves compared", total)
	}
}

// FuzzWarmVsColdLP derives a vertex-cover or Eq. 4 model from (kind, n,
// density, seed) and a dive from fixes — two bytes per step: variable
// and action — then checks warm reoptimization against the cold and
// dense solvers at every step. Warm fallbacks to a cold solve are allowed;
// a cold numerical failure and any disagreement are not.
func FuzzWarmVsColdLP(f *testing.F) {
	f.Add(uint8(0), uint8(12), uint8(80), uint64(1), []byte{0, 1, 3, 0, 5, 1, 7, 0, 2, 2, 9, 1})
	f.Add(uint8(1), uint8(9), uint8(100), uint64(7), []byte{0, 0, 1, 1, 4, 0, 18, 1, 30, 0, 0, 2, 3, 1})
	f.Add(uint8(1), uint8(14), uint8(60), uint64(42), []byte{2, 1, 2, 0, 40, 1, 41, 1, 6, 0, 11, 1, 13, 0})
	f.Fuzz(func(t *testing.T, kind, n, density uint8, seed uint64, fixes []byte) {
		nn := 3 + int(n)%16
		g := graph.Random(nn, 0.05+float64(density)/600, seed)
		if len(g.Edges()) == 0 {
			return
		}
		var mod *Model
		if kind%2 == 0 {
			mod = vcModel(g, rand.New(rand.NewSource(int64(seed))))
		} else {
			mod = eq4Model(g, 0.5+float64(kind%5)/8)
		}
		if len(fixes) > 64 {
			fixes = fixes[:64]
		}
		step := 0
		diveWarmVsCold(t, mod, len(fixes)/2, func() (int, int) {
			v, a := int(fixes[2*step])%mod.NumVars(), int(fixes[2*step+1])%3
			step++
			return v, a
		}, false)
	})
}
