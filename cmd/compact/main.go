// Command compact synthesizes a flow-based-computing crossbar design from
// a combinational circuit in BLIF or PLA format, implementing the COMPACT
// framework (DATE 2021).
//
// Usage:
//
//	compact -in circuit.blif [-gamma 0.5] [-method auto|oct|mip|heuristic|portfolio]
//	        [-robdds] [-noalign] [-timelimit 60s] [-render] [-dot out.dot]
//	        [-verify N] [-spice] [-defects map.json] [-defect-rate 0.05]
//	        [-max-rows R] [-max-cols C] [-partition] [-layers K]
//
// -layers K (K >= 3) synthesizes a FLOW-3D K-layer crossbar stack instead
// of the classic two-layer array: the BDD graph is K-colored onto the
// stack (internal/labeling SolveK), mapped to a K-layer xbar.Design and
// verified through the same sneak-path evaluators. 0, 1 and 2 all mean the
// classic 2D pipeline.
//
// -max-rows / -max-cols cap the crossbar dimensions; with -partition, a
// function that cannot fit one tile is cut into a verified cascade of
// tiles, each within the caps (see internal/partition).
//
// The -defects / -defect-rate flags enable defect-aware placement: the
// design is placed onto a defective crossbar (an explicit stuck-at map, or
// one generated at the given rate from -defect-seed) and the effective
// placed design is re-verified before it is reported.
//
// Interrupting the run (SIGINT/SIGTERM) cancels the synthesis context; the
// anytime solvers unwind with their best labeling so far where possible.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"compact/internal/core"
	"compact/internal/defect"
	"compact/internal/parse"
	"compact/internal/spice"
)

// cliConfig carries every flag that tunes run; the zero value plus a gamma
// is a plain defect-free synthesis.
type cliConfig struct {
	gamma      float64
	method     string
	robdds     bool
	noalign    bool
	timeLimit  time.Duration
	sift       bool
	render     bool
	dotPath    string
	svgPath    string
	verifyN    int
	runSpice   bool
	formal     bool
	defectsMap string // path to a defect.Map JSON file
	defectRate float64
	defectOn   float64
	defectSeed uint64
	repairMax  int
	partition  bool
	maxRows    int
	maxCols    int
	layers     int
}

func main() {
	var (
		inPath = flag.String("in", "", "input circuit (.blif, .pla or structural .v)")
		cfg    cliConfig
	)
	flag.Float64Var(&cfg.gamma, "gamma", 0.5, "objective weight: 1 minimizes semiperimeter, 0 max dimension")
	flag.StringVar(&cfg.method, "method", "auto", "labeling method: auto, oct, mip, heuristic, portfolio")
	flag.BoolVar(&cfg.robdds, "robdds", false, "use per-output ROBDDs merged by the 1-terminal instead of a shared SBDD")
	flag.BoolVar(&cfg.noalign, "noalign", false, "drop the input/output alignment constraints (Eq. 7)")
	flag.DurationVar(&cfg.timeLimit, "timelimit", 60*time.Second, "exact-solver time limit")
	flag.BoolVar(&cfg.sift, "sift", false, "improve the BDD variable order by rebuild-based sifting")
	flag.BoolVar(&cfg.render, "render", false, "print the crossbar matrix")
	flag.StringVar(&cfg.dotPath, "dot", "", "write the crossbar's BDD in Graphviz format (unsupported with -robdds)")
	flag.IntVar(&cfg.verifyN, "verify", 1000, "random vectors for functional validation (0 disables; exhaustive when few inputs)")
	flag.BoolVar(&cfg.runSpice, "spice", false, "run the SPICE-lite electrical margin analysis")
	flag.StringVar(&cfg.svgPath, "svg", "", "write the crossbar design as an SVG image")
	flag.BoolVar(&cfg.formal, "formal", false, "prove design/network equivalence for ALL inputs (symbolic sneak-path closure)")
	flag.StringVar(&cfg.defectsMap, "defects", "", "defect map JSON file; place the design onto this defective crossbar")
	flag.Float64Var(&cfg.defectRate, "defect-rate", 0, "generate a seeded defect map with this stuck-at cell fraction [0,1)")
	flag.Float64Var(&cfg.defectOn, "defect-on", 0, "stuck-ON share of generated defects (default 0.5)")
	flag.Uint64Var(&cfg.defectSeed, "defect-seed", 0, "seed for defect generation and placement search")
	flag.IntVar(&cfg.repairMax, "repair", 0, "max candidate placements that may fail verification (default 3)")
	flag.IntVar(&cfg.maxRows, "max-rows", 0, "per-crossbar row cap (0 = unconstrained)")
	flag.IntVar(&cfg.maxCols, "max-cols", 0, "per-crossbar column cap (0 = unconstrained)")
	flag.BoolVar(&cfg.partition, "partition", false, "when the function cannot fit -max-rows x -max-cols, cut it into a verified multi-tile cascade")
	flag.IntVar(&cfg.layers, "layers", 0, "crossbar wire layers: 0/1/2 = classic 2D, 3+ = FLOW-3D layered stack")
	flag.Parse()
	if *inPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *inPath, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "compact:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, inPath string, cfg cliConfig) error {
	nw, err := parse.ParseFile(inPath)
	if err != nil {
		return err
	}
	fmt.Printf("circuit: %s\n", nw)

	m, err := core.MethodFromString(cfg.method)
	if err != nil {
		return err
	}
	opts := core.Options{
		Gamma: cfg.gamma, GammaSet: true,
		Method:            m,
		NoAlign:           cfg.noalign,
		TimeLimit:         cfg.timeLimit,
		Sift:              cfg.sift,
		DefectRate:        cfg.defectRate,
		DefectOnFraction:  cfg.defectOn,
		DefectSeed:        cfg.defectSeed,
		MaxRepairAttempts: cfg.repairMax,
		MaxRows:           cfg.maxRows,
		MaxCols:           cfg.maxCols,
		Partition:         cfg.partition,
		Layers:            cfg.layers,
	}
	if cfg.robdds {
		opts.BDDKind = core.SeparateROBDDs
	}
	if cfg.defectsMap != "" {
		data, err := os.ReadFile(cfg.defectsMap)
		if err != nil {
			return err
		}
		dm := new(defect.Map)
		if err := json.Unmarshal(data, dm); err != nil {
			return fmt.Errorf("reading defect map %s: %w", cfg.defectsMap, err)
		}
		opts.Defects = dm
	}
	res, err := core.SynthesizeContext(ctx, nw, opts)
	if err != nil {
		return err
	}
	if res.Plan != nil {
		ps := res.Plan.Stats()
		fmt.Printf("partition: %d tiles under %dx%d caps  cut_nets=%d  total_S=%d  devices=%d  cascade_depth=%d\n",
			ps.Tiles, cfg.maxRows, cfg.maxCols, ps.CutNets, ps.TotalS, ps.Devices, ps.Depth)
		for _, tl := range res.Plan.Tiles {
			ts := tl.Design.Stats()
			line := fmt.Sprintf("  tile %-6s %2d x %-2d  S=%-3d devices=%-3d in=%d out=%d",
				tl.Name, ts.Rows, ts.Cols, ts.S, ts.LitCells+ts.OnCells, len(tl.Inputs), len(tl.Outputs))
			if tl.Placement != nil {
				line += fmt.Sprintf("  placed=%s repair_attempts=%d", tl.Placement.Engine, tl.RepairAttempts)
			}
			fmt.Println(line)
		}
		fmt.Printf("plan digest: %s\n", res.Plan.Digest())
	} else {
		st, lab := res.Stats(), res.Labeling
		fmt.Printf("bdd: %d nodes, %d edges (%s)\n", res.BDDNodes, res.BDDEdges, opts.BDDKind)
		coloring := ""
		if st.K > 2 {
			coloring = fmt.Sprintf(" (K=%d coloring)", st.K)
		}
		fmt.Printf("labeling: method=%s optimal=%v%s\n", lab.Method, lab.Optimal, coloring)
		for _, er := range lab.Engines {
			mark := " "
			if er.Winner {
				mark = "*"
			}
			detail := fmt.Sprintf("objective=%.2f optimal=%v", er.Objective, er.Optimal)
			if er.Err != "" {
				detail = "error: " + er.Err
			}
			fmt.Printf("  %s engine %-9s %-32s elapsed=%v\n", mark, er.Method, detail, er.Elapsed.Round(time.Millisecond))
		}
		if st.K > 2 {
			fmt.Printf("stack: %d wire layers, widths %v  footprint %d x %d  S=%d  D=%d  devices=%d  delay=%d steps\n",
				st.K, st.Widths, st.Rows, st.Cols, st.S, st.D, st.LitCells+st.OnCells, st.Delay)
		} else {
			fmt.Printf("crossbar: %d x %d  S=%d  D=%d  area=%d  devices=%d  delay=%d steps\n",
				st.Rows, st.Cols, st.S, st.D, st.Area, st.LitCells+st.OnCells, st.Delay)
		}
		if res.Placement != nil {
			defects := 0
			for _, dm := range res.Defects {
				defects += dm.Len()
			}
			where := fmt.Sprintf("array=%dx%d", res.Defects[0].Rows(), res.Defects[0].Cols())
			if st.K > 2 {
				where = fmt.Sprintf("planes=%d", len(res.Defects))
			}
			fmt.Printf("placement: engine=%s %s defects=%d repair_attempts=%d (effective design re-verified)\n",
				res.Placement.Engine, where, defects, res.RepairAttempts)
		}
	}
	fmt.Printf("synthesis time: %v\n", res.SynthTime.Round(time.Millisecond))

	if cfg.formal {
		if err := res.FormalVerify(0); err != nil {
			return fmt.Errorf("formal verification FAILED: %w", err)
		}
		fmt.Printf("formal verification: PROVEN over all 2^%d assignments\n", nw.NumInputs())
	}
	if cfg.verifyN > 0 {
		if err := res.Verify(14, cfg.verifyN, 1); err != nil {
			return fmt.Errorf("validation FAILED: %w", err)
		}
		fmt.Printf("validation: OK (%d inputs, sampled/exhaustive)\n", nw.NumInputs())
	}
	if res.Stats().K > 2 && (cfg.render || cfg.svgPath != "") {
		return fmt.Errorf("-render and -svg draw single 2D arrays; not supported for -layers stacks (use the JSON wire format)")
	}
	if cfg.render {
		if res.Plan != nil {
			for _, tl := range res.Plan.Tiles {
				fmt.Printf("\ntile %s (inputs %v -> nets %v):\n", tl.Name, tl.Inputs, tl.Outputs)
				if err := tl.Design.Render(os.Stdout); err != nil {
					return err
				}
			}
		} else {
			fmt.Println()
			if err := res.Design.Render(os.Stdout); err != nil {
				return err
			}
		}
	}
	if res.Plan != nil && (cfg.dotPath != "" || cfg.svgPath != "" || cfg.runSpice) {
		return fmt.Errorf("-dot, -svg and -spice are single-crossbar reports; not supported for partitioned plans")
	}
	if cfg.dotPath != "" {
		f, err := os.Create(cfg.dotPath)
		if err != nil {
			return err
		}
		if err := res.WriteBDDDOT(f); err != nil {
			_ = f.Close() // the write error is the one worth reporting
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("dot: wrote %s\n", cfg.dotPath)
	}
	if cfg.svgPath != "" {
		f, err := os.Create(cfg.svgPath)
		if err != nil {
			return err
		}
		if err := res.Design.WriteSVG(f); err != nil {
			_ = f.Close() // the write error is the one worth reporting
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("svg: wrote %s\n", cfg.svgPath)
	}
	if cfg.runSpice {
		// A defect-placed design — a 2D array or a K-layer stack — is
		// simulated on its physical stack: stuck devices and spare-wire
		// bridges move the read voltages.
		env := spice.Env{Model: spice.Default(), Defects: res.Defects, Placement: res.Placement}
		rep, err := spice.MarginContext(ctx, res.Design, nw.Eval, nw.NumInputs(), 10, 200, env, 1)
		if err != nil {
			return err
		}
		fmt.Printf("spice-lite: minOn=%.4gV maxOff=%.4gV separable=%v (%d vectors)\n",
			rep.MinOn, rep.MaxOff, rep.Separable, rep.Checked)
	}
	return nil
}
