package ilp

import (
	"context"
	"math/rand"
	"testing"

	"compact/internal/graph"
)

// benchVC is the benchmark vertex-cover relaxation: the ~2-nonzeros-per-
// row matrix shape that motivated the revised simplex.
func benchVC(n int, p float64, seed uint64) *Model {
	g := graph.Random(n, p, seed)
	return vcModel(g, rand.New(rand.NewSource(int64(seed))))
}

// BenchmarkLPVertexCoverDense measures the dense tableau oracle on a
// vertex-cover relaxation (the before side of the revised-simplex claim).
func BenchmarkLPVertexCoverDense(b *testing.B) {
	mod := benchVC(220, 0.04, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := solveLPDense(context.Background(), mod, mod.lb, mod.ub)
		if err != nil || res.status != StatusOptimal {
			b.Fatalf("dense: %v / %v", err, res.status)
		}
	}
}

// BenchmarkLPVertexCoverRevised measures the sparse revised simplex on
// the same instance (the after side).
func BenchmarkLPVertexCoverRevised(b *testing.B) {
	mod := benchVC(220, 0.04, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := solveLP(context.Background(), mod, mod.lb, mod.ub)
		if err != nil || res.status != StatusOptimal {
			b.Fatalf("revised: %v / %v", err, res.status)
		}
	}
}

// BenchmarkBBVertexCoverSerial runs the full branch & bound (revised LP
// core) on a vertex-cover MIP with one worker.
func BenchmarkBBVertexCoverSerial(b *testing.B) {
	mod := benchVC(60, 0.1, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := solve(context.Background(), mod, Options{}, &searchProbe{workers: 1})
		if err != nil || sol.Status != StatusOptimal {
			b.Fatalf("serial: %v / %v", err, sol.Status)
		}
	}
}

// BenchmarkBBVertexCoverParallel4 is the same search with four workers
// (on multi-core hardware the wall-clock ratio to the serial benchmark is
// the parallel speedup; on one core it measures coordination overhead).
func BenchmarkBBVertexCoverParallel4(b *testing.B) {
	mod := benchVC(60, 0.1, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := solve(context.Background(), mod, Options{}, &searchProbe{workers: 4})
		if err != nil || sol.Status != StatusOptimal {
			b.Fatalf("parallel: %v / %v", err, sol.Status)
		}
	}
}
