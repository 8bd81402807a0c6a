package compact_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (Section VIII), driving the same harness as cmd/experiments in Quick
// mode, plus ablation benchmarks for the design choices called out in
// DESIGN.md §5. Run with:
//
//	go test -bench=. -benchmem
//
// The full-scale experiments (paper benchmark sets, longer budgets) are
// regenerated by `go run ./cmd/experiments`.

import (
	"context"
	"testing"
	"time"

	compact "compact"
	"compact/internal/bdd"
	"compact/internal/bench"
	"compact/internal/core"
	"compact/internal/exp"
	"compact/internal/graph"
	"compact/internal/labeling"
	"compact/internal/magic"
	"compact/internal/oct"
	"compact/internal/spice"
	"compact/internal/staircase"
	"compact/internal/xbar"
)

func quickCfg() exp.Config {
	return exp.Config{Quick: true, TimeLimit: 2 * time.Second}
}

func runExp(b *testing.B, fn func(exp.Config) (*exp.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := fn(quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table I (benchmark properties).
func BenchmarkTable1(b *testing.B) { runExp(b, exp.Table1) }

// BenchmarkTable2 regenerates Table II (γ sweep).
func BenchmarkTable2(b *testing.B) { runExp(b, exp.Table2) }

// BenchmarkTable3 regenerates Table III (ROBDDs vs SBDD).
func BenchmarkTable3(b *testing.B) { runExp(b, exp.Table3) }

// BenchmarkTable4 regenerates Table IV (COMPACT vs staircase [16]).
func BenchmarkTable4(b *testing.B) { runExp(b, exp.Table4) }

// BenchmarkFig9 regenerates Figure 9 (non-dominated designs under γ).
func BenchmarkFig9(b *testing.B) { runExp(b, exp.Fig9) }

// BenchmarkFig10 regenerates Figure 10 (solver convergence trace).
func BenchmarkFig10(b *testing.B) { runExp(b, exp.Fig10) }

// BenchmarkFig11 regenerates Figure 11 (relative gap at time-out).
func BenchmarkFig11(b *testing.B) { runExp(b, exp.Fig11) }

// BenchmarkFig12 regenerates Figure 12 (power/delay vs staircase [16]).
func BenchmarkFig12(b *testing.B) { runExp(b, exp.Fig12) }

// BenchmarkFig13 regenerates Figure 13 (power/delay vs CONTRA [34]).
func BenchmarkFig13(b *testing.B) { runExp(b, exp.Fig13) }

// --- Ablations (DESIGN.md §5) -------------------------------------------

func ctrlGraph(b *testing.B) *xbar.BDDGraph {
	b.Helper()
	nw := bench.MustBuild("ctrl")
	m, roots, err := bdd.BuildNetwork(nw, bdd.DFSOrder(nw), 0)
	if err != nil {
		b.Fatal(err)
	}
	bg, err := xbar.FromBDD(m, roots, nw.OutputNames)
	if err != nil {
		b.Fatal(err)
	}
	return bg
}

// BenchmarkAblationOCTvsMIPGamma1 compares the two exact labelers at γ=1,
// where they provably find the same semiperimeter.
func BenchmarkAblationOCTvsMIPGamma1(b *testing.B) {
	bg := ctrlGraph(b)
	for _, m := range []labeling.Method{labeling.MethodOCT, labeling.MethodMIP} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := labeling.SolveContext(context.Background(), bg.Problem(false), labeling.Options{
					Method: m, Gamma: 1, TimeLimit: 10 * time.Second,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEdgeHelpers compares the paper's literal Eq. 4 MIP
// (one binary helper per edge) against the helper-free formulation.
func BenchmarkAblationEdgeHelpers(b *testing.B) {
	bg := ctrlGraph(b)
	for _, helpers := range []bool{false, true} {
		name := "helper-free"
		if helpers {
			name = "eq4-helpers"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := labeling.SolveContext(context.Background(), bg.Problem(true), labeling.Options{
					Method: labeling.MethodMIP, Gamma: 0.5,
					TimeLimit:      5 * time.Second,
					UseEdgeHelpers: helpers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationNTKernel measures the Nemhauser–Trotter kernelization's
// effect on Lemma 1's vertex cover of G □ K2.
func BenchmarkAblationNTKernel(b *testing.B) {
	bg := ctrlGraph(b)
	p := bg.G.CartesianK2()
	for _, disable := range []bool{false, true} {
		name := "kernel-on"
		if disable {
			name = "kernel-off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := graph.MinVertexCoverContext(context.Background(), p, graph.VCOptions{
					TimeLimit:     10 * time.Second,
					DisableKernel: disable,
				})
				if !p.VerifyVertexCover(res.Cover) {
					b.Fatal("invalid cover")
				}
			}
		})
	}
}

// BenchmarkAblationOCTBackends compares the odd-cycle branch & bound on G
// against Lemma 1's ILP route for the odd cycle transversal.
func BenchmarkAblationOCTBackends(b *testing.B) {
	bg := ctrlGraph(b)
	for _, backend := range []oct.Backend{oct.BackendBB, oct.BackendILP} {
		name := "branch-and-bound"
		if backend == oct.BackendILP {
			name = "ilp"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := oct.FindContext(context.Background(), bg.G, oct.Options{Backend: backend, TimeLimit: 10 * time.Second})
				if err != nil {
					b.Fatal(err)
				}
				if !oct.Verify(bg.G, res) {
					b.Fatal("invalid OCT")
				}
			}
		})
	}
}

// BenchmarkAblationSBDDvsROBDDs measures the full pipeline under the two
// multi-output representations.
func BenchmarkAblationSBDDvsROBDDs(b *testing.B) {
	nw := bench.MustBuild("int2float")
	for _, kind := range []core.BDDKind{core.SBDD, core.SeparateROBDDs} {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Synthesize(nw, core.Options{
					BDDKind: kind, Method: labeling.MethodHeuristic,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAlignment measures the cost of the Eq. 7 alignment
// constraints on the labeling.
func BenchmarkAblationAlignment(b *testing.B) {
	bg := ctrlGraph(b)
	for _, align := range []bool{true, false} {
		name := "aligned"
		if !align {
			name = "unaligned"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := labeling.SolveContext(context.Background(), bg.Problem(align), labeling.Options{
					Method: labeling.MethodMIP, Gamma: 0.5, TimeLimit: 5 * time.Second,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSifting measures rebuild-based variable-order sifting.
func BenchmarkAblationSifting(b *testing.B) {
	nw := bench.MustBuild("cavlc")
	for _, sift := range []bool{false, true} {
		name := "dfs-order"
		if sift {
			name = "sifted"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Synthesize(nw, core.Options{
					Sift: sift, Method: labeling.MethodHeuristic,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Component micro-benchmarks ------------------------------------------

// BenchmarkBDDBuild measures shared-BDD construction per benchmark circuit.
func BenchmarkBDDBuild(b *testing.B) {
	for _, name := range []string{"ctrl", "cavlc", "dec", "priority"} {
		nw := bench.MustBuild(name)
		order := bdd.DFSOrder(nw)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := bdd.BuildNetwork(nw, order, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCrossbarEval measures sneak-path evaluation throughput.
func BenchmarkCrossbarEval(b *testing.B) {
	nw := bench.MustBuild("dec")
	res, err := core.Synthesize(nw, core.Options{Method: labeling.MethodHeuristic})
	if err != nil {
		b.Fatal(err)
	}
	in := make([]bool, nw.NumInputs())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in[i%len(in)] = !in[i%len(in)]
		res.Design.Eval(in)
	}
}

// BenchmarkStaircaseMap measures the linear-time baseline mapping.
func BenchmarkStaircaseMap(b *testing.B) {
	bg := ctrlGraph(b)
	for i := 0; i < b.N; i++ {
		if _, err := staircase.Map(bg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMagicSynthesize measures the CONTRA-style baseline mapper.
func BenchmarkMagicSynthesize(b *testing.B) {
	nw := bench.MustBuild("router")
	for i := 0; i < b.N; i++ {
		if _, err := magic.Synthesize(nw, magic.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpiceSimulate measures one nodal-analysis solve.
func BenchmarkSpiceSimulate(b *testing.B) {
	nw, _ := compact.Benchmark("ctrl")
	res, err := core.Synthesize(nw, core.Options{Method: labeling.MethodHeuristic})
	if err != nil {
		b.Fatal(err)
	}
	in := make([]bool, nw.NumInputs())
	model := spice.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spice.Simulate(res.Design, in, model); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselines regenerates the DNF/staircase/COMPACT comparison.
func BenchmarkBaselines(b *testing.B) { runExp(b, exp.Baselines) }

// BenchmarkAblationTable regenerates the full ablation sweep table.
func BenchmarkAblationTable(b *testing.B) { runExp(b, exp.Ablations) }

// BenchmarkScaling regenerates the semiperimeter-growth experiment.
func BenchmarkScaling(b *testing.B) { runExp(b, exp.Scaling) }
