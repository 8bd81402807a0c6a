package labeling

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"compact/internal/graph"
)

func graphFromSeed(seed int64, n int, p float64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
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

// Property: every solver method returns a labeling that validates, with
// S >= n always, and S == n exactly when the graph is bipartite (no
// alignment constraints involved).
func TestQuickAllMethodsValidate(t *testing.T) {
	prop := func(seed int64) bool {
		g := graphFromSeed(seed, 10, 0.3)
		p := Problem{G: g}
		for _, m := range []Method{MethodOCT, MethodHeuristic} {
			sol, err := SolveContext(context.Background(), p, Options{Method: m, Gamma: 1})
			if err != nil {
				return false
			}
			if sol.Stats.S < g.N() {
				return false
			}
			if g.IsBipartite() && sol.Stats.S != g.N() {
				// Both methods find zero VH labels on bipartite graphs.
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the OCT-method semiperimeter is n plus the proven minimum OCT
// size (without alignment), and no method beats it.
func TestQuickOCTSemiperimeterIsOptimal(t *testing.T) {
	prop := func(seed int64) bool {
		g := graphFromSeed(seed, 9, 0.35)
		p := Problem{G: g}
		octSol, err := SolveContext(context.Background(), p, Options{Method: MethodOCT, Gamma: 1})
		if err != nil || !octSol.Optimal {
			return err == nil // non-proven runs are skipped, not failures
		}
		heur, err := SolveContext(context.Background(), p, Options{Method: MethodHeuristic, Gamma: 1})
		if err != nil {
			return false
		}
		return heur.Stats.S >= octSol.Stats.S
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: upgrading any single node of a valid labeling to VH keeps it
// valid (VH is compatible with every neighbor label).
func TestQuickVHUpgradeKeepsValidity(t *testing.T) {
	prop := func(seed int64, pick uint8) bool {
		g := graphFromSeed(seed, 10, 0.3)
		p := Problem{G: g}
		sol, err := SolveContext(context.Background(), p, Options{Method: MethodHeuristic})
		if err != nil {
			return false
		}
		labels := append([]Label(nil), sol.Labels...)
		labels[int(pick)%len(labels)] = VH
		return Validate(p, labels) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: ComputeStats is consistent: Rows+Cols == S, D == max, and the
// objective interpolates linearly between D (γ=0) and S (γ=1).
func TestQuickStatsConsistency(t *testing.T) {
	prop := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		labels := make([]Label, len(raw))
		for i, r := range raw {
			labels[i] = Label(r%3) + 1
		}
		st := ComputeStats(labels)
		if st.S != st.Rows+st.Cols {
			return false
		}
		if st.D != st.Rows && st.D != st.Cols {
			return false
		}
		mid := st.Objective(0.5)
		return mid == (st.Objective(0)+st.Objective(1))/2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
