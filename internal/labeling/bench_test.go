package labeling

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

// benchProblem is sized so the MIP engine does real branch & bound work but
// finishes within the per-op budget; the same instance serves every method
// so the numbers are comparable.
func benchProblem() Problem {
	rng := rand.New(rand.NewSource(1))
	return Problem{G: randomGraph(rng, 24, 0.2)}
}

func benchSolve(b *testing.B, m Method) {
	p := benchProblem()
	opts := Options{Method: m, Gamma: 0.5, TimeLimit: 30 * time.Second}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := SolveContext(context.Background(), p, opts)
		if err != nil {
			b.Fatal(err)
		}
		if sol.Labels == nil {
			b.Fatal("nil labels")
		}
	}
}

func BenchmarkSolveHeuristic(b *testing.B) { benchSolve(b, MethodHeuristic) }
func BenchmarkSolveOCT(b *testing.B)       { benchSolve(b, MethodOCT) }
func BenchmarkSolveMIP(b *testing.B)       { benchSolve(b, MethodMIP) }
func BenchmarkSolvePortfolio(b *testing.B) { benchSolve(b, MethodPortfolio) }
