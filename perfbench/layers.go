package main

import "time"

// endToEndUnits lists every end-to-end metric and its unit; each
// workload reports all of them when untraced.
var endToEndUnits = map[string]string{
	"setup_s":           "s",
	"circuits_per_s":    "1/s",
	"synth_geomean_ms":  "ms",
	"semiperimeter_sum": "count",
	"maxdim_sum":        "count",
	"placed_frac":       "ratio",
	"req_p50_ms":        "ms",
	"req_p90_ms":        "ms",
	"peak_heap_mb":      "MB",
}

// layerUnits lists every per-layer metric and its unit; each workload
// reports all of them when traced, with 0 for layers it does not call.
// Closed-loop figures are per pass of the workload's fixed list.
var layerUnits = map[string]string{
	"parse.busy_ms":             "ms",
	"parse.calls":               "count",
	"bdd.busy_ms":               "ms",
	"bdd.nodes":                 "count",
	"xbar.graph_busy_ms":        "ms",
	"labeling.busy_ms":          "ms",
	"labeling.calls":            "count",
	"labeling.optimal_frac":     "ratio",
	"labeling.final_gap":        "ratio",
	"ilp.bb_nodes":              "count",
	"xbar.map_busy_ms":          "ms",
	"xbar.verify_busy_ms":       "ms",
	"xbar.verify_vectors":       "count",
	"xbar.formal_busy_ms":       "ms",
	"xbar.formal_limit_hits":    "count",
	"core.place_busy_ms":        "ms",
	"core.repair_attempts":      "count",
	"spice.busy_ms":             "ms",
	"spice.trials":              "count",
	"spice.margin_min_v":        "V",
	"spice.placed_margin_min_v": "V",
	"labeling.solvek_busy_ms":   "ms",
	"xbar3d.map_busy_ms":        "ms",
	"xbar3d.verify_busy_ms":     "ms",
	"core.unattributed_ms":      "ms",
	"core.trace_overhead_ms":    "ms",
	"server.hit_p50_ms":         "ms",
	"server.miss_p50_ms":        "ms",
	"server.job_done_p50_ms":    "ms",
	"server.hit_ratio":          "ratio",
	"server.shared_ratio":       "ratio",
	"server.solves":             "count",
	"store.disk_hit_p50_ms":     "ms",
	"store.disk_hit_ratio":      "ratio",
	"loadgen.req_p50_ms":        "ms",
	"loadgen.req_p90_ms":        "ms",
	"loadgen.req_p99_ms":        "ms",
	"loadgen.late_p99_ms":       "ms",
	"loadgen.sent":              "count",
	"loadgen.shed":              "count",
	"loadgen.max_rps_slo":       "req/s",
	"loadgen.max_inflight":      "count",
}

// layers is a set of per-layer values under construction.
type layers map[string]float64

// fromSpans derives the span-based per-layer metrics, scaled to one pass
// of the workload's list.
func (l layers) fromSpans(agg map[string]*LayerStats, passes int) {
	if passes < 1 {
		passes = 1
	}
	per := 1 / float64(passes)
	self := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			if s := agg[n]; s != nil {
				d += s.Self
			}
		}
		return ms(d) * per
	}
	calls := func(name string) float64 {
		if s := agg[name]; s != nil {
			return float64(s.Calls) * per
		}
		return 0
	}
	attr := func(name, key string) float64 {
		if s := agg[name]; s != nil {
			return s.Attrs[key] * per
		}
		return 0
	}
	l["parse.busy_ms"] = self("parse.Parse")
	l["parse.calls"] = calls("parse.Parse")
	l["bdd.busy_ms"] = self("bdd.order", "bdd.build")
	l["bdd.nodes"] = attr("bdd.build", "nodes")
	l["xbar.graph_busy_ms"] = self("xbar.graph")
	l["labeling.busy_ms"] = self("labeling.solve")
	l["labeling.calls"] = calls("labeling.solve")
	if c := calls("labeling.solve"); c > 0 {
		l["labeling.optimal_frac"] = attr("labeling.solve", "optimal") / c
	}
	if s := agg["labeling.solve"]; s != nil && s.Attrs["traced"] > 0 {
		// Mean final gap over the solves that carry a MIP trace.
		l["labeling.final_gap"] = s.Attrs["gap"] / s.Attrs["traced"]
	}
	l["ilp.bb_nodes"] = attr("labeling.solve", "bb_nodes")
	l["xbar.map_busy_ms"] = self("xbar.map")
	l["xbar.verify_busy_ms"] = self("xbar.verify")
	l["xbar.verify_vectors"] = attr("xbar.verify", "vectors")
	l["spice.busy_ms"] = self("spice.montecarlo", "spice.montecarlo3d")
	l["spice.trials"] = attr("spice.montecarlo", "trials") + attr("spice.montecarlo3d", "trials")
	l["labeling.solvek_busy_ms"] = self("labeling.solvek")
	l["xbar3d.map_busy_ms"] = self("xbar3d.map")
	l["xbar3d.verify_busy_ms"] = self("xbar3d.verify")
	l["core.unattributed_ms"] = self("core.synthesize")
}

// metrics returns every per-layer metric, 0 where the workload left a
// layer unused.
func (l layers) metrics() map[string]metric {
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{l[name], unit}
	}
	return out
}
