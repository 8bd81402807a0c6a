package exp

import (
	"context"
	"fmt"
	"time"

	"compact/internal/bdd"
	"compact/internal/bench"
	"compact/internal/core"
	"compact/internal/dnf"
	"compact/internal/espresso"
	"compact/internal/labeling"
	"compact/internal/oct"
	"compact/internal/pla"
	"compact/internal/xbar"
)

// Baselines compares the generations of flow-based mapping on the small
// benchmarks: the DNF cube-chain style of the paper's references [7]/[11],
// the same after Espresso-style two-level minimization, the staircase BDD
// mapping of [16], and COMPACT. This reproduces the
// introduction's motivation quantitatively (it is not a numbered figure in
// the paper).
func Baselines(cfg Config) (*Table, error) {
	t := &Table{
		Name:    "Baselines: DNF [7,11] vs staircase [16] vs COMPACT",
		Columns: []string{"benchmark", "method", "rows", "cols", "S", "area", "valid"},
		Notes:   []string{"DNF designs use exhaustive minterm covers, hence only small-input circuits"},
	}
	// int2float is excluded: its exhaustive 11-input cover makes the
	// cube-chain design too large even to allocate (the guard in dnf.Map).
	names := []string{"ctrl", "dec", "cavlc"}
	if cfg.Quick {
		names = names[:2]
	}
	for _, name := range names {
		nw := bench.MustBuild(name)

		dnfDesign, err := dnf.MapNetwork(nw, 12)
		if err != nil {
			return nil, fmt.Errorf("baselines %s dnf: %w", name, err)
		}
		addDesignRow(t, name, "dnf", dnfDesign, nw)

		// The same style after two-level minimization: closer to what the
		// original DNF tools would ship, still far from BDD-based sizes.
		tab, err := pla.FromNetwork(nw, 12)
		if err != nil {
			return nil, err
		}
		minTab, err := espresso.Minimize(tab)
		if err != nil {
			return nil, fmt.Errorf("baselines %s espresso: %w", name, err)
		}
		minDesign, err := dnf.Map(minTab)
		if err != nil {
			return nil, err
		}
		addDesignRow(t, name, "dnf-minimized", minDesign, nw)

		order := bdd.DFSOrder(nw)
		m, roots, err := bdd.BuildNetwork(nw, order, 8_000_000)
		if err != nil {
			return nil, err
		}
		bg, err := xbar.FromBDD(m, roots, nw.OutputNames)
		if err != nil {
			return nil, err
		}
		stair, err := staircaseMap(bg)
		if err != nil {
			return nil, err
		}
		if err := stair.RemapVars(append([]int(nil), order...), nw.InputNames()); err != nil {
			return nil, err
		}
		addDesignRow(t, name, "staircase", stair, nw)

		res, err := cfg.synthesize(nw, core.Options{TimeLimit: cfg.timeLimit()})
		if err != nil {
			return nil, err
		}
		addDesignRow(t, name, "compact", res.Design, nw)
		cfg.logf("baselines %s done", name)
	}
	return t, t.Write(cfg, "baselines")
}

func addDesignRow(t *Table, name, method string, d *xbar.Design, nw interface {
	Eval64([]uint64) []uint64
	NumInputs() int
}) {
	st := d.Stats()
	ok := d.VerifyAgainst64(nw.Eval64, nw.NumInputs(), 11, 100, 7) == nil
	t.Rows = append(t.Rows, []string{
		name, method, itoa(st.Rows), itoa(st.Cols), itoa(st.S), itoa(st.Area),
		fmt.Sprintf("%v", ok),
	})
}

// label runs one labeling solve under the per-solve time limit.
func (c Config) label(p labeling.Problem, opts labeling.Options) (*labeling.Solution, error) {
	ctx, cancel := context.WithTimeout(c.context(), c.timeLimit())
	defer cancel()
	return labeling.SolveContext(ctx, p, opts)
}

// Ablations measures the design choices catalogued in DESIGN.md §5 on the
// ctrl benchmark, reporting the quality and run-time of each variant pair.
func Ablations(cfg Config) (*Table, error) {
	t := &Table{
		Name:    "Ablations (ctrl benchmark)",
		Columns: []string{"ablation", "variant", "metric", "value", "time"},
	}
	nw := bench.MustBuild("ctrl")
	order := bdd.DFSOrder(nw)
	m, roots, err := bdd.BuildNetwork(nw, order, 0)
	if err != nil {
		return nil, err
	}
	bg, err := xbar.FromBDD(m, roots, nw.OutputNames)
	if err != nil {
		return nil, err
	}
	add := func(abl, variant, metric, value string, d time.Duration) {
		t.Rows = append(t.Rows, []string{abl, variant, metric, value, dur(d)})
	}

	// 1. Exact labelers at gamma = 1: same optimum, different run-time.
	for _, method := range []labeling.Method{labeling.MethodOCT, labeling.MethodMIP} {
		start := time.Now()
		sol, err := cfg.label(bg.Problem(false), labeling.Options{Method: method, Gamma: 1})
		if err != nil {
			return nil, err
		}
		add("labeler@γ=1", method.String(), "S", itoa(sol.Stats.S), time.Since(start))
	}

	// 2. Eq. 4 edge helpers vs the helper-free formulation.
	for _, helpers := range []bool{false, true} {
		variant := "helper-free"
		if helpers {
			variant = "eq4-helpers"
		}
		start := time.Now()
		sol, err := cfg.label(bg.Problem(true), labeling.Options{
			Method: labeling.MethodMIP, Gamma: 0.5, UseEdgeHelpers: helpers,
		})
		if err != nil {
			return nil, err
		}
		add("MIP formulation", variant, fmt.Sprintf("objective (opt=%v)", sol.Optimal),
			f2(sol.Stats.Objective(0.5)), time.Since(start))
	}

	// 3. OCT backends.
	for _, backend := range []oct.Backend{oct.BackendBB, oct.BackendILP} {
		variant := "branch-and-bound"
		if backend == oct.BackendILP {
			variant = "ilp"
		}
		start := time.Now()
		ctx, cancel := context.WithTimeout(cfg.context(), cfg.timeLimit())
		res, err := oct.FindContext(ctx, bg.G, oct.Options{Backend: backend})
		cancel()
		if err != nil {
			return nil, err
		}
		add("OCT backend", variant, fmt.Sprintf("k (opt=%v)", res.Optimal),
			itoa(len(res.OCT)), time.Since(start))
	}

	// 4. SBDD vs per-output ROBDDs through the whole pipeline.
	for _, kind := range []core.BDDKind{core.SBDD, core.SeparateROBDDs} {
		start := time.Now()
		res, err := cfg.synthesize(nw, core.Options{BDDKind: kind, Method: labeling.MethodHeuristic})
		if err != nil {
			return nil, err
		}
		add("BDD kind", kind.String(), "S", itoa(res.Stats().S), time.Since(start))
	}

	// 5. Alignment constraints on/off (labeling quality only).
	for _, align := range []bool{true, false} {
		variant := "aligned"
		if !align {
			variant = "unaligned"
		}
		start := time.Now()
		sol, err := cfg.label(bg.Problem(align), labeling.Options{Method: labeling.MethodMIP, Gamma: 0.5})
		if err != nil {
			return nil, err
		}
		add("alignment (Eq. 7)", variant, "S", itoa(sol.Stats.S), time.Since(start))
	}
	return t, t.Write(cfg, "ablations")
}
