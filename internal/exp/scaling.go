package exp

import (
	"fmt"

	"compact/internal/bdd"
	"compact/internal/bench"
	"compact/internal/core"
	"compact/internal/xbar"
)

// Scaling measures how the crossbar semiperimeter grows with the BDD graph
// size on parametric circuit families, the direct test of the paper's
// Section VIII-D observation that COMPACT's semiperimeter is ≈1.11·n while
// the staircase baseline's is ≈1.90·n.
func Scaling(cfg Config) (*Table, error) {
	t := &Table{
		Name:    "Scaling: semiperimeter growth vs graph size (S = c*n)",
		Columns: []string{"circuit", "graph_n", "S_compact", "ratio_compact", "S_staircase", "ratio_staircase"},
		Notes:   []string{"paper: COMPACT ≈ 1.11n, staircase [16] ≈ 1.90n"},
	}
	specs := []string{
		"adder:4", "adder:8", "adder:16", "adder:32",
		"comparator:8", "comparator:16", "comparator:32",
		"priority:16", "priority:32", "priority:64",
		"decoder:4", "decoder:6", "decoder:8",
		"majority:7", "majority:11", "majority:15",
	}
	if cfg.Quick {
		specs = []string{"adder:4", "comparator:8", "priority:16", "decoder:4"}
	}
	var sumCompact, sumStair float64
	for _, spec := range specs {
		nw, err := bench.Parametric(spec)
		if err != nil {
			return nil, err
		}
		order := bdd.DFSOrder(nw)
		m, roots, err := bdd.BuildNetwork(nw, order, 8_000_000)
		if err != nil {
			return nil, fmt.Errorf("scaling %s: %w", spec, err)
		}
		bg, err := xbar.FromBDD(m, roots, nw.OutputNames)
		if err != nil {
			return nil, err
		}
		stair, err := staircaseMap(bg)
		if err != nil {
			return nil, err
		}
		res, err := cfg.synthesize(nw, core.Options{TimeLimit: cfg.timeLimit()})
		if err != nil {
			return nil, fmt.Errorf("scaling %s: %w", spec, err)
		}
		n := float64(bg.NumNodes())
		rc := float64(res.Stats().S) / n
		rs := float64(stair.Stats().S) / n
		sumCompact += rc
		sumStair += rs
		t.Rows = append(t.Rows, []string{
			spec, itoa(bg.NumNodes()),
			itoa(res.Stats().S), f3(rc),
			itoa(stair.Stats().S), f3(rs),
		})
		cfg.logf("scaling %s: compact %.3f, staircase %.3f", spec, rc, rs)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("mean ratios: compact %.3f, staircase %.3f",
		sumCompact/float64(len(specs)), sumStair/float64(len(specs))))
	return t, t.Write(cfg, "scaling")
}
