package exp

import (
	"fmt"

	"compact/internal/bench"
	"compact/internal/core"
	"compact/internal/defect"
	"compact/internal/labeling"
	"compact/internal/logic"
	"compact/internal/partition"
	"compact/internal/spice"
	"compact/internal/xbar"
)

// The three experiments below go beyond the paper: the FLOW-3D layer
// axis, variation-robustness yield and the cost of tiling under caps.
// They all run on the EPFL control circuits the paper's Table I reports.
var epflControl = []string{"ctrl", "cavlc", "int2float"}

func (c Config) beyondCircuits() []string {
	if c.Quick {
		return epflControl[:1]
	}
	return epflControl
}

// flow3dLayers is the K axis. K=1 canonicalizes to the classic two-layer
// pipeline, so its row must equal K=2's; keeping both documents the clamp.
var flow3dLayers = []int{1, 2, 3, 4}

// Flow3D sweeps the wire-layer count K: the footprint semiperimeter of
// each circuit's heuristic design at K = 1..4, every design checked by
// the symbolic sneak-path proof and word-parallel simulation.
func Flow3D(cfg Config) (*Table, error) {
	t := &Table{
		Name:    "FLOW-3D: footprint semiperimeter vs wire-layer count K (heuristic)",
		Columns: []string{"circuit", "K", "S", "D", "rows", "cols", "devices", "verified"},
		Notes:   []string{"K <= 2 is the classic crossbar; rows/cols are the footprint of the stacked layers"},
	}
	for _, name := range cfg.beyondCircuits() {
		nw := bench.MustBuild(name)
		for _, k := range flow3dLayers {
			res, err := cfg.synthesize(nw, core.Options{
				Method: labeling.MethodHeuristic, TimeLimit: cfg.timeLimit(), Layers: k,
			})
			if err != nil {
				return nil, fmt.Errorf("flow3d %s K=%d: %w", name, k, err)
			}
			var s, d, rows, cols, devices int
			if res.Design3D != nil {
				st := res.Design3D.Stats()
				s, d, rows, cols, devices = st.S, st.D, st.R, st.C, st.LitCells+st.OnCells
			} else {
				st := res.Stats()
				s, d, rows, cols, devices = st.S, st.D, st.Rows, st.Cols, st.LitCells+st.OnCells
			}
			verified := res.FormalVerify(0) == nil && res.Verify(14, 512, 1) == nil
			t.Rows = append(t.Rows, []string{
				name, itoa(k), itoa(s), itoa(d), itoa(rows), itoa(cols), itoa(devices), fmt.Sprint(verified),
			})
			cfg.logf("flow3d %s K=%d: S=%d verified=%v", name, k, s, verified)
		}
	}
	return t, t.Write(cfg, "flow3d")
}

// The yield curve's Monte Carlo settings: trials per sigma, input vectors
// per trial and the root seed, all fixed so the curve is deterministic.
const (
	yieldTrials  = 16
	yieldVectors = 32
	yieldSeed    = 1
)

// yieldSigmas is the per-device log-normal spread swept on both states.
var yieldSigmas = []float64{0.05, 0.1, 0.2}

// Yield charts variation robustness on the high-contrast device model:
// Monte Carlo yield and worst-case sensing margin versus sigma for each
// circuit's heuristic design. Its last two columns replay margin-aware
// placement on a sneak-bridge defect map: the worst-case margin of the
// plain verified-repair placement and of the MarginAware one, at equal
// array dimensions.
func Yield(cfg Config) (*Table, error) {
	t := &Table{
		Name: "Yield: Monte Carlo yield and worst margin vs sigma (high-contrast model)",
		Columns: []string{"circuit", "rows", "cols", "S", "sigma", "yield", "fail_trials",
			"worst_margin_mV", "plain_margin_mV", "aware_margin_mV"},
		Notes: []string{fmt.Sprintf("%d trials x %d vectors per point, seed %d; plain/aware: default model on a stuck-ON bridge to a spare bitline",
			yieldTrials, yieldVectors, yieldSeed)},
	}
	model := spice.HighContrast()
	for _, name := range cfg.beyondCircuits() {
		nw := bench.MustBuild(name)
		res, err := cfg.synthesize(nw, core.Options{
			Method: labeling.MethodHeuristic, TimeLimit: cfg.timeLimit(),
		})
		if err != nil {
			return nil, fmt.Errorf("yield %s: %w", name, err)
		}
		d, size := res.Design, res.Stats().S
		plain, aware, err := cfg.marginAware(nw, d)
		if err != nil {
			return nil, fmt.Errorf("yield %s margin-aware: %w", name, err)
		}
		for _, sigma := range yieldSigmas {
			mc, err := spice.MonteCarloContext(cfg.context(), d, d.Eval, len(d.VarNames),
				spice.Env{Model: model},
				spice.Variation{SigmaOn: sigma, SigmaOff: sigma},
				spice.MonteCarloOptions{Trials: yieldTrials, Vectors: yieldVectors, Seed: yieldSeed})
			if err != nil {
				return nil, fmt.Errorf("yield %s sigma=%v: %w", name, sigma, err)
			}
			t.Rows = append(t.Rows, []string{
				name, itoa(d.Rows), itoa(d.Cols), itoa(size), f2(sigma),
				f3(mc.Yield), itoa(mc.FailTrials), mV(mc.WorstMargin), mV(plain), mV(aware),
			})
			cfg.logf("yield %s sigma=%.2f: yield %.3f worst %+.4f V", name, sigma, mc.Yield, mc.WorstMargin)
		}
	}
	return t, t.Write(cfg, "yield")
}

// marginAware synthesizes nw against a deterministic sneak-bridge defect
// map, a spare wordline and bitline with the devices joining the spare
// bitline to the input wordline and the first output wordline stuck ON,
// once with the plain verified-repair loop and once with MarginAware. It
// returns the worst-case margin of both placements. The faults sit on a
// spare bitline, so every placement is compatible and any difference is
// the electrical secondary objective alone.
func (c Config) marginAware(nw *logic.Network, d *xbar.Design) (plain, aware float64, err error) {
	if len(d.OutputRows) == 0 {
		return 0, 0, fmt.Errorf("design has no output rows")
	}
	dm, err := defect.New(d.Rows+1, d.Cols+1)
	if err != nil {
		return 0, 0, err
	}
	for _, row := range []int{d.InputRow, d.OutputRows[0]} {
		if err := dm.Set(row, d.Cols, defect.StuckOn); err != nil {
			return 0, 0, err
		}
	}
	opts := core.Options{
		Method: labeling.MethodHeuristic, TimeLimit: c.timeLimit(),
		Defects: dm, DefectSeed: 5,
	}
	var margins [2]float64
	for i, marginAware := range []bool{false, true} {
		opts.MarginAware = marginAware
		res, err := c.synthesize(nw, opts)
		if err != nil {
			return 0, 0, err
		}
		rep, err := spice.MarginContext(c.context(), res.Design, res.Design.Eval,
			len(res.Design.VarNames), 6, 32,
			spice.Env{Model: spice.Default(), Defects: dm, Placement: res.Placement}, opts.DefectSeed)
		if err != nil {
			return 0, 0, err
		}
		margins[i] = rep.MinOn - rep.MaxOff
	}
	return margins[0], margins[1], nil
}

// partitionCaps is the per-tile row and column cap of the tiled runs.
const partitionCaps = 32

// Partition measures what tiling costs: the unconstrained single-crossbar
// semiperimeter against the total semiperimeter of the tile cascade under
// 32x32 caps, the area-constrained mode CONTRA motivates.
func Partition(cfg Config) (*Table, error) {
	t := &Table{
		Name:    fmt.Sprintf("Partition: tile cascade under %dx%d caps vs one unconstrained crossbar", partitionCaps, partitionCaps),
		Columns: []string{"circuit", "baseline_S", "tiles", "cut_nets", "total_S", "depth", "overhead_%"},
		Notes:   []string{"overhead = (total_S - baseline_S) / baseline_S; small tiles often label closer to optimal, so it can be negative"},
	}
	var method labeling.Method // MethodAuto, the synthesis default
	if cfg.Quick {
		method = labeling.MethodHeuristic
	}
	for _, name := range cfg.beyondCircuits() {
		nw := bench.MustBuild(name)
		base, err := cfg.synthesize(nw, core.Options{Method: method, TimeLimit: cfg.timeLimit()})
		if err != nil {
			return nil, fmt.Errorf("partition %s baseline: %w", name, err)
		}
		res, err := cfg.synthesize(nw, core.Options{
			Method: method, TimeLimit: cfg.timeLimit(),
			MaxRows: partitionCaps, MaxCols: partitionCaps, Partition: true,
		})
		if err != nil {
			return nil, fmt.Errorf("partition %s tiled: %w", name, err)
		}
		// A circuit that fits one tile after all is a 1-tile cascade.
		st := partition.Stats{Tiles: 1, TotalS: res.Stats().S}
		if res.Plan != nil {
			st = res.Plan.Stats()
		}
		baseS := base.Stats().S
		overhead := 100 * float64(st.TotalS-baseS) / float64(baseS)
		t.Rows = append(t.Rows, []string{
			name, itoa(baseS), itoa(st.Tiles), itoa(st.CutNets), itoa(st.TotalS), itoa(st.Depth),
			fmt.Sprintf("%+.1f", overhead),
		})
		cfg.logf("partition %s: S %d -> %d over %d tiles", name, baseS, st.TotalS, st.Tiles)
	}
	return t, t.Write(cfg, "partition")
}

// mV renders a margin in volts as signed millivolts.
func mV(v float64) string { return fmt.Sprintf("%+.2f", 1000*v) }
