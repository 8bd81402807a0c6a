package exp

import (
	"fmt"
	"time"

	"compact/internal/bdd"
	"compact/internal/bench"
	"compact/internal/core"
	"compact/internal/labeling"
	"compact/internal/logic"
	"compact/internal/xbar"
)

// table2Set lists the circuits the paper's Table II reports (those its
// solver closed within the 3-hour budget); ours use cfg.TimeLimit.
var table2Set = []string{"cavlc", "ctrl", "dec", "int2float", "priority", "router"}

// table3Set lists multi-output circuits for the SBDD-vs-ROBDDs comparison.
var table3Set = []string{"c432", "c880", "c1908", "c3540", "cavlc", "ctrl", "dec", "i2c", "int2float", "router"}

func quickSubset(names []string, quick bool) []string {
	if !quick {
		return names
	}
	keep := map[string]bool{"ctrl": true, "int2float": true, "cavlc": true, "router": true}
	var out []string
	for _, n := range names {
		if keep[n] {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		out = names[:1]
	}
	return out
}

// Table1 reproduces the paper's Table I: benchmark properties (inputs,
// outputs, shared-BDD nodes and edges).
func Table1(cfg Config) (*Table, error) {
	t := &Table{
		Name:    "Table I: benchmark properties",
		Columns: []string{"benchmark", "suite", "inputs", "outputs", "nodes", "edges"},
		Notes: []string{
			"nodes/edges are SBDD counts under the DFS variable order (terminals included)",
			"circuits are behavioural stand-ins with the paper's I/O signature (DESIGN.md §2)",
		},
	}
	gens := bench.All()
	if cfg.Quick {
		gens = gens[:4]
	}
	for _, g := range gens {
		nw := g.Build()
		order := bdd.DFSOrder(nw)
		m, roots, err := bdd.BuildNetwork(nw, order, 8_000_000)
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", g.Name, err)
		}
		t.Rows = append(t.Rows, []string{
			g.Name, g.Suite,
			itoa(nw.NumInputs()), itoa(nw.NumOutputs()),
			itoa(m.CountNodes(roots...)), itoa(m.CountEdges(roots...)),
		})
		cfg.logf("table1 %s done", g.Name)
	}
	return t, t.Write(cfg, "table1")
}

// Table2 reproduces the γ sweep of the paper's Table II: rows, columns,
// maximum dimension, semiperimeter and synthesis time for γ ∈ {0, 0.5, 1}.
func Table2(cfg Config) (*Table, error) {
	t := &Table{
		Name:    "Table II: effect of gamma (MIP labeler)",
		Columns: []string{"benchmark", "gamma", "rows", "cols", "D", "S", "optimal", "synthesis"},
		Notes: []string{
			fmt.Sprintf("per-solve time limit %v; the paper used 3 hours of CPLEX", cfg.timeLimit()),
		},
	}
	for _, name := range quickSubset(table2Set, cfg.Quick) {
		nw := bench.MustBuild(name)
		for _, gamma := range []float64{0, 0.5, 1} {
			res, err := cfg.synthesize(nw, core.Options{
				Gamma: gamma, GammaSet: true,
				Method:    labeling.MethodMIP,
				TimeLimit: cfg.timeLimit(),
			})
			if err != nil {
				return nil, fmt.Errorf("table2 %s γ=%v: %w", name, gamma, err)
			}
			st := res.Stats()
			t.Rows = append(t.Rows, []string{
				name, f2(gamma),
				itoa(st.Rows), itoa(st.Cols), itoa(st.D), itoa(st.S),
				fmt.Sprintf("%v", res.Labeling.Optimal), dur(res.SynthTime),
			})
			cfg.logf("table2 %s γ=%v: S=%d D=%d opt=%v", name, gamma, st.S, st.D, res.Labeling.Optimal)
		}
	}
	return t, t.Write(cfg, "table2")
}

// Table3 reproduces the paper's Table III: hardware utilization for
// per-output ROBDDs merged by the 1-terminal versus one shared SBDD.
func Table3(cfg Config) (*Table, error) {
	t := &Table{
		Name:    "Table III: multiple ROBDDs vs single SBDD (gamma = 0.5)",
		Columns: []string{"benchmark", "kind", "nodes", "rows", "cols", "D", "S", "synthesis"},
		Notes:   []string{"labeling via the heuristic solver so both sides get identical treatment"},
	}
	for _, name := range quickSubset(table3Set, cfg.Quick) {
		nw := bench.MustBuild(name)
		for _, kind := range []core.BDDKind{core.SeparateROBDDs, core.SBDD} {
			res, err := cfg.synthesize(nw, core.Options{
				Method:  labeling.MethodHeuristic,
				BDDKind: kind,
			})
			if err != nil {
				return nil, fmt.Errorf("table3 %s %v: %w", name, kind, err)
			}
			st := res.Stats()
			t.Rows = append(t.Rows, []string{
				name, kind.String(),
				itoa(res.BDDNodes), itoa(st.Rows), itoa(st.Cols), itoa(st.D), itoa(st.S),
				dur(res.SynthTime),
			})
			cfg.logf("table3 %s %v: nodes=%d S=%d", name, kind, res.BDDNodes, st.S)
		}
	}
	return t, t.Write(cfg, "table3")
}

// Table4 reproduces the paper's Table IV: COMPACT (γ = 0.5) versus the
// staircase mapping of prior work [16] across all benchmarks, including a
// functional validation of every produced design.
func Table4(cfg Config) (*Table, error) {
	t := &Table{
		Name:    "Table IV: COMPACT vs staircase baseline [16]",
		Columns: []string{"benchmark", "method", "nodes", "rows", "cols", "D", "S", "area", "valid", "synthesis"},
		Notes: []string{
			"COMPACT: exact MIP for graphs within the auto limit, heuristic beyond",
			"valid: design checked against the network on sampled/exhaustive vectors",
		},
	}
	names := quickSubset(benchNames(), cfg.Quick)
	for _, name := range names {
		nw := bench.MustBuild(name)

		// Baseline: the prior-work flow of [16] — one ROBDD per output,
		// merged by the 1-terminal, staircase-mapped.
		start := time.Now()
		stairDesign, nodes, err := staircaseBaseline(nw)
		if err != nil {
			return nil, fmt.Errorf("table4 %s staircase: %w", name, err)
		}
		stairTime := time.Since(start)
		stairOK := stairDesign.VerifyAgainst64(nw.Eval64, nw.NumInputs(), 11, verifySamples(cfg), 7) == nil
		st := stairDesign.Stats()
		t.Rows = append(t.Rows, []string{
			name, "staircase", itoa(nodes),
			itoa(st.Rows), itoa(st.Cols), itoa(st.D), itoa(st.S), itoa(st.Area),
			fmt.Sprintf("%v", stairOK), dur(stairTime),
		})

		// COMPACT.
		res, err := cfg.synthesize(nw, core.Options{TimeLimit: cfg.timeLimit()})
		if err != nil {
			return nil, fmt.Errorf("table4 %s compact: %w", name, err)
		}
		ok := res.Verify(11, verifySamples(cfg), 7) == nil
		cst := res.Stats()
		t.Rows = append(t.Rows, []string{
			name, "compact", itoa(res.BDDNodes),
			itoa(cst.Rows), itoa(cst.Cols), itoa(cst.D), itoa(cst.S), itoa(cst.Area),
			fmt.Sprintf("%v", ok), dur(res.SynthTime),
		})
		cfg.logf("table4 %s: staircase S=%d vs compact S=%d", name, st.S, cst.S)
	}
	return t, t.Write(cfg, "table4")
}

// staircaseBaseline builds the [16]-style design: per-output ROBDDs merged
// by the shared 1-terminal, every node on one wordline and (if it has a
// parent) one bitline. Returns the design plus the merged node count using
// the Table I convention (0-terminal re-added).
func staircaseBaseline(nw *logic.Network) (*xbar.Design, int, error) {
	order := bdd.DFSOrder(nw)
	singles, err := bdd.BuildSeparate(nw, order, 8_000_000)
	if err != nil {
		return nil, 0, err
	}
	bg, err := xbar.FromSeparate(singles, nw.InputNames())
	if err != nil {
		return nil, 0, err
	}
	d, err := staircaseMap(bg)
	if err != nil {
		return nil, 0, err
	}
	return d, bg.NumNodes() + 1, nil
}

func verifySamples(cfg Config) int {
	if cfg.Quick {
		return 50
	}
	return 200
}

func benchNames() []string {
	var out []string
	for _, g := range bench.All() {
		out = append(out, g.Name)
	}
	return out
}
