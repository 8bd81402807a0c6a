package labeling

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// TestStressMIPAllConfigs cross-checks the MIP against brute force over a
// wider grid of sizes, densities, gammas, alignment sets and both MIP
// formulations.
func TestStressMIPAllConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(4)
		g := randomGraph(rng, n, 0.25+0.4*rng.Float64())
		var align []int
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.25 {
				align = append(align, v)
			}
		}
		p := Problem{G: g, AlignH: align}
		gamma := []float64{0, 0.25, 0.5, 0.75, 1}[rng.Intn(5)]
		want := bruteBest(p, gamma)
		for _, helpers := range []bool{false, true} {
			sol, err := SolveContext(context.Background(), p, Options{
				Method: MethodMIP, Gamma: gamma, UseEdgeHelpers: helpers,
			})
			if err != nil {
				t.Fatalf("trial %d helpers=%v: %v", trial, helpers, err)
			}
			if !sol.Optimal {
				t.Fatalf("trial %d helpers=%v: not optimal", trial, helpers)
			}
			if got := sol.Stats.Objective(gamma); math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d helpers=%v γ=%v: got %v want %v", trial, helpers, gamma, got, want)
			}
		}
	}
}
