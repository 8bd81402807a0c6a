package labeling

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

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

// Property: on K ∈ {2, 3, 4} layers every solver method returns intervals
// that validate, with Stats computed from them and Labels set exactly at
// K = 2, where they lift back to the intervals and Rows = #H + #VH and
// Cols = #V + #VH. At K = 2, S >= n always,
// and S == n exactly when the graph is bipartite for OCT and the
// heuristic, whose SolveContext answer is SolveK's at K = 1 and K = 2.
// The first node is aligned on odd seeds.
func TestQuickAllMethodsValidate(t *testing.T) {
	methods := []Method{MethodAuto, MethodOCT, MethodMIP, MethodHeuristic, MethodPortfolio}
	prop := func(seed int64) bool {
		g := graphFromSeed(seed, 10, 0.3)
		p := Problem{G: g}
		if seed%2 != 0 {
			p.AlignH = []int{0}
		}
		for _, k := range []int{2, 3, 4} {
			for _, m := range methods {
				opts := Options{Method: m, Gamma: 1}
				sol, err := solveWithin(5*time.Millisecond, p, k, opts)
				if err != nil {
					t.Logf("K=%d %v: %v", k, m, err)
					return false
				}
				if sol.K != k || Validate(p, k, sol.Lo, sol.Hi) != nil ||
					!reflect.DeepEqual(sol.Stats, ComputeStats(k, sol.Lo, sol.Hi)) {
					t.Logf("K=%d %v: invalid solution %+v", k, m, sol)
					return false
				}
				if k > 2 {
					if sol.Labels != nil {
						t.Logf("K=%d %v: labels set above K = 2", k, m)
						return false
					}
					continue
				}
				if lo, hi := LiftLabels(sol.Labels); !reflect.DeepEqual(lo, sol.Lo) || !reflect.DeepEqual(hi, sol.Hi) {
					t.Logf("K=2 %v: labels %v do not lift to the intervals", m, sol.Labels)
					return false
				}
				rows, cols := 0, 0
				for _, l := range sol.Labels {
					if l != V {
						rows++
					}
					if l != H {
						cols++
					}
				}
				if !reflect.DeepEqual(sol.Stats.Widths, []int{rows, cols}) || sol.Stats.Rows != rows ||
					sol.Stats.Cols != cols || sol.Stats.S < g.N() {
					t.Logf("K=2 %v: stats %+v for %d H-side and %d V-side labels", m, sol.Stats, rows, cols)
					return false
				}
				if m != MethodOCT && m != MethodHeuristic {
					continue
				}
				if g.IsBipartite() && sol.Stats.S != g.N() {
					// Both methods find zero VH labels on bipartite graphs.
					return false
				}
				rctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
				ref, err := SolveContext(rctx, p, opts)
				cancel()
				clamped, err1 := solveWithin(5*time.Millisecond, p, 1, opts)
				if err != nil || err1 != nil || !sameSolution(ref, sol) || !sameSolution(clamped, sol) {
					t.Logf("%v: SolveContext %+v and SolveK(1) %+v differ from SolveK(2) %+v", m, ref, clamped, sol)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// sameSolution compares the deterministic parts of two solutions.
func sameSolution(a, b *Solution) bool {
	return a.K == b.K && reflect.DeepEqual(a.Lo, b.Lo) && reflect.DeepEqual(a.Hi, b.Hi) &&
		reflect.DeepEqual(a.Labels, b.Labels) && reflect.DeepEqual(a.Stats, b.Stats) &&
		a.Method == b.Method && a.Optimal == b.Optimal
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
		return validLabels(p, labels) == nil
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
		st := labelStats(labels)
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
