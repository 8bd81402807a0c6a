package ilp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// benchKnapsack builds a random 0-1 knapsack with n items: the classic
// branch & bound stress shape (fractional LP relaxations at every node).
func benchKnapsack(n int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := NewModel(fmt.Sprintf("knap%d", n))
	var terms []Term
	total := 0.0
	for i := 0; i < n; i++ {
		w := 1 + rng.Float64()*9
		v := w * (0.8 + rng.Float64()*0.4) // value correlated with weight: hard instances
		x := m.AddVar(fmt.Sprintf("x%d", i), 0, 1, Binary, -v)
		terms = append(terms, Term{x, w})
		total += w
	}
	m.AddConstr("cap", terms, LE, total/2)
	return m
}

// benchLP builds a dense feasible LP exercising the simplex hot loop.
func benchLP(nVars, nConstrs int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := NewModel(fmt.Sprintf("lp%dx%d", nConstrs, nVars))
	for i := 0; i < nVars; i++ {
		m.AddVar(fmt.Sprintf("x%d", i), 0, 10, Continuous, -(1 + rng.Float64()))
	}
	for c := 0; c < nConstrs; c++ {
		terms := make([]Term, 0, nVars)
		for i := 0; i < nVars; i++ {
			terms = append(terms, Term{i, rng.Float64()})
		}
		m.AddConstr(fmt.Sprintf("c%d", c), terms, LE, float64(nVars)/2)
	}
	return m
}

func BenchmarkSimplexDense(b *testing.B) {
	m := benchLP(60, 40, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := SolveContext(context.Background(), m, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != StatusOptimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}

func BenchmarkBranchAndBoundKnapsack(b *testing.B) {
	m := benchKnapsack(22, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := SolveContext(context.Background(), m, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != StatusOptimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}

// BenchmarkBranchAndBoundWarmStart measures the effect of the external
// incumbent plumbing the portfolio relies on: BestKnown supplies the
// optimum up front, so the tree is pruned against it from node one.
func BenchmarkBranchAndBoundWarmStart(b *testing.B) {
	m := benchKnapsack(22, 2)
	ref, err := SolveContext(context.Background(), m, Options{})
	if err != nil || ref.Status != StatusOptimal {
		b.Fatalf("reference solve: %v %v", ref, err)
	}
	opt := ref.Obj
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := SolveContext(context.Background(), m, Options{BestKnown: func() float64 { return opt + 1e-6 }})
		if err != nil {
			b.Fatal(err)
		}
		if sol.X != nil && math.Abs(sol.Obj-opt) > 1e-6 {
			b.Fatalf("warm-started obj %v, want %v", sol.Obj, opt)
		}
	}
}
