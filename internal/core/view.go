package core

import (
	"math"
	"strings"
	"time"

	"compact/internal/partition"
	"compact/internal/xbar"
)

// ResultView is the stable, JSON-serializable projection of a Result — the
// body the compactd server returns from /v1/synthesize and the form in
// which synthesis outcomes are archived. It carries everything the
// experiments report (circuit, BDD and crossbar statistics, the labeling
// outcome with per-engine portfolio reports) plus the full design in the
// sparse wire format of xbar.Design's MarshalJSON. The view round-trips:
// decoding the JSON yields a design whose Eval agrees with the original
// everywhere (asserted by TestResultViewRoundTripEvalParity).
type ResultView struct {
	// Fingerprint is the source network's canonical content hash.
	Fingerprint string      `json:"fingerprint"`
	Circuit     CircuitView `json:"circuit"`
	// BDDNodes/BDDEdges use the paper's Table I conventions.
	BDDNodes int `json:"bdd_nodes"`
	BDDEdges int `json:"bdd_edges"`
	// Order is the BDD variable order used (input indices, level order).
	Order    []int        `json:"order,omitempty"`
	Labeling LabelingView `json:"labeling"`
	Crossbar CrossbarView `json:"crossbar"`
	// SynthMillis is the synthesis wall clock in milliseconds.
	SynthMillis float64 `json:"synth_ms"`
	// Design is the programmed 2D crossbar, sparse-encoded; nil for
	// partitioned results (see Partition) and K-layer stacks.
	Design *xbar.Design `json:"design,omitempty"`
	// Design3D is the K-layer stack produced when the request asked for
	// Layers >= 3, in the same codec's layered body; Design is nil in that
	// case and Crossbar carries the stack's footprint projection.
	Design3D *xbar.Design `json:"design3d,omitempty"`
	// Placement reports the defect-aware placement outcome; present only
	// when synthesis ran against a defect map.
	Placement *PlacementView `json:"placement,omitempty"`
	// Partition carries the multi-crossbar plan and its summary when the
	// function was synthesized as a tile cascade; Design and Crossbar are
	// zero in that case (per-tile designs live inside the plan).
	Partition *PartitionView `json:"partition,omitempty"`
}

// PartitionView is the wire form of a partitioned synthesis outcome: the
// full plan (tiles, nets, per-tile designs and placements in the plan's
// versioned wire format) plus its aggregate statistics and content
// digest.
type PartitionView struct {
	Tiles   int    `json:"tiles"`
	CutNets int    `json:"cut_nets"`
	TotalS  int    `json:"total_s"`
	MaxRows int    `json:"max_rows"`
	MaxCols int    `json:"max_cols"`
	Devices int    `json:"devices"`
	Depth   int    `json:"depth"`
	Digest  string `json:"digest"`
	// Plan is the complete cascade in partition's wire format v1.
	Plan *partition.Plan `json:"plan"`
}

// PlacementView is the wire form of a defect-aware placement: the binding
// of logical lines onto physical ones, which search engine produced it,
// how many place-verify rounds the repair loop used, and the defect map's
// identity (fault count plus content digest).
type PlacementView struct {
	Engine         string `json:"engine"`
	RowPerm        []int  `json:"row_perm,omitempty"`
	ColPerm        []int  `json:"col_perm,omitempty"`
	RepairAttempts int    `json:"repair_attempts"`
	Defects        int    `json:"defects"`
	DefectsDigest  string `json:"defects_digest"`
	// LayerPerms is the per-layer wire binding of a layered placement
	// (RowPerm/ColPerm are absent in that case); DefectsDigest then joins
	// the per-plane map digests with "," in plane order.
	LayerPerms [][]int `json:"layer_perms,omitempty"`
}

// CircuitView summarizes the source network.
type CircuitView struct {
	Name    string `json:"name"`
	Inputs  int    `json:"inputs"`
	Outputs int    `json:"outputs"`
	Gates   int    `json:"gates"`
	Depth   int    `json:"depth"`
}

// LabelingView summarizes the VH-labeling solution.
type LabelingView struct {
	Method  string  `json:"method"`
	Optimal bool    `json:"optimal"`
	Rows    int     `json:"rows"`
	Cols    int     `json:"cols"`
	S       int     `json:"s"`
	D       int     `json:"d"`
	Millis  float64 `json:"solve_ms"`
	// Engines reports the per-engine outcome of a portfolio race; empty
	// for single-engine methods.
	Engines []EngineView `json:"engines,omitempty"`
}

// EngineView is one portfolio engine's outcome. Objective is omitted when
// the engine produced no labeling (its report carries +Inf, which JSON
// cannot encode).
type EngineView struct {
	Method    string   `json:"method"`
	Objective *float64 `json:"objective,omitempty"`
	Optimal   bool     `json:"optimal"`
	Winner    bool     `json:"winner"`
	Millis    float64  `json:"elapsed_ms"`
	Err       string   `json:"error,omitempty"`
}

// CrossbarView is the design's hardware statistics in wire form. For
// layered results Rows/Cols/S/D are the stack's footprint projection and
// the two layer fields identify the stack shape; both are zero/absent for
// classic 2D designs.
type CrossbarView struct {
	Rows    int `json:"rows"`
	Cols    int `json:"cols"`
	S       int `json:"s"`
	D       int `json:"d"`
	Area    int `json:"area"`
	Devices int `json:"devices"`
	Power   int `json:"power"`
	Delay   int `json:"delay"`
	// Layers is the wire-layer count of a layered result (0 for 2D).
	Layers int `json:"layers,omitempty"`
	// LayerWidths is the per-layer wire count of a layered result.
	LayerWidths []int `json:"layer_widths,omitempty"`
}

// View projects the result into its serializable wire form. The returned
// view shares the Design pointer with the result (designs are effectively
// immutable after synthesis); everything else is copied.
func (r *Result) View() ResultView {
	v := ResultView{
		BDDNodes:    r.BDDNodes,
		BDDEdges:    r.BDDEdges,
		Order:       append([]int(nil), r.Order...),
		SynthMillis: millis(r.SynthTime),
	}
	if d := r.Design; d != nil {
		st := d.Stats()
		v.Crossbar = CrossbarView{
			Rows: st.Rows, Cols: st.Cols, S: st.S, D: st.D,
			Area: st.Area, Devices: st.LitCells + st.OnCells,
			Power: st.Power, Delay: st.Delay,
		}
		if st.K > 2 {
			v.Design3D = d
			v.Crossbar.Layers, v.Crossbar.LayerWidths = st.K, st.Widths
		} else {
			v.Design = d
		}
	}
	if p := r.Plan; p != nil {
		ps := p.Stats()
		v.Partition = &PartitionView{
			Tiles:   ps.Tiles,
			CutNets: ps.CutNets,
			TotalS:  ps.TotalS,
			MaxRows: ps.MaxRows,
			MaxCols: ps.MaxCols,
			Devices: ps.Devices,
			Depth:   ps.Depth,
			Digest:  p.Digest(),
			Plan:    p,
		}
	}
	if r.network != nil {
		ns := r.network.Stats()
		v.Fingerprint = r.network.Fingerprint()
		v.Circuit = CircuitView{
			Name:    r.network.Name,
			Inputs:  ns.Inputs,
			Outputs: ns.Outputs,
			Gates:   ns.Gates,
			Depth:   ns.Depth,
		}
	}
	if pl := r.Placement; pl != nil {
		pv := &PlacementView{Engine: pl.Engine, RepairAttempts: r.RepairAttempts}
		if len(pl.Perms) == 2 {
			pv.RowPerm = append([]int(nil), pl.Perms[0]...)
			pv.ColPerm = append([]int(nil), pl.Perms[1]...)
		} else {
			for _, p := range pl.Perms {
				pv.LayerPerms = append(pv.LayerPerms, append([]int(nil), p...))
			}
		}
		var digests []string
		for _, m := range r.Defects {
			pv.Defects += m.Len()
			digests = append(digests, m.Digest())
		}
		pv.DefectsDigest = strings.Join(digests, ",")
		v.Placement = pv
	}
	if sol := r.Labeling; sol != nil {
		v.Labeling = LabelingView{Method: sol.Method, Optimal: sol.Optimal, Rows: sol.Stats.Rows, Cols: sol.Stats.Cols,
			S: sol.Stats.S, D: sol.Stats.D, Millis: millis(sol.Elapsed)}
		for _, er := range sol.Engines {
			ev := EngineView{
				Method:  er.Method,
				Optimal: er.Optimal,
				Winner:  er.Winner,
				Millis:  millis(er.Elapsed),
				Err:     er.Err,
			}
			if !math.IsInf(er.Objective, 0) && !math.IsNaN(er.Objective) {
				obj := er.Objective
				ev.Objective = &obj
			}
			v.Labeling.Engines = append(v.Labeling.Engines, ev)
		}
	}
	return v
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
