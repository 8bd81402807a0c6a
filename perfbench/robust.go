package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"compact/internal/core"
	"compact/internal/defect"
	"compact/internal/labeling"
	"compact/internal/parse"
	"compact/internal/spice"
	"compact/internal/xbar"
	"compact/internal/xbar3d"
)

// Defect-map settings: stuck-at rates, the share of spare lines added on
// each side, and the fixed defect seeds. The seeds are part of the
// workload, not of --seed, so every run places the same arrays.
var (
	robustRates       = []float64{0.01, 0.02}
	robustDefectSeeds = []uint64{1, 2, 3}
)

const spareShare = 4 // one spare line per four used lines (25%)

// robustCase is one synthesis of the robust workload.
type robustCase struct {
	key  string
	c    circuit
	opts core.Options
}

// robustSetup builds the circuits and the defect maps. Spare-line maps
// are sized from each circuit's clean heuristic design.
func robustSetup(rng *rand.Rand, _ time.Duration, _ bool) (any, func(), error) {
	cs, err := makeCircuits([]string{"ctrl", "cavlc", "int2float"}, rng)
	if err != nil {
		return nil, nil, err
	}
	heur := core.Options{Method: labeling.MethodHeuristic}
	var cases []robustCase
	dims := map[string][2]int{}
	for _, c := range cs {
		res, err := core.Synthesize(c.src, heur)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: sizing defect maps: %w", c.name, err)
		}
		r, k := res.Design.Rows, res.Design.Cols
		dims[c.name] = [2]int{r + (r+spareShare-1)/spareShare, k + (k+spareShare-1)/spareShare}
	}
	spareMap := func(c circuit, rate float64, seed uint64) (*defect.Map, error) {
		d := dims[c.name]
		return defect.Generate(d[0], d[1], rate, 0.5, seed)
	}
	for _, c := range cs[:2] {
		for _, rate := range robustRates {
			for _, seed := range robustDefectSeeds {
				dm, err := spareMap(c, rate, seed)
				if err != nil {
					return nil, nil, fmt.Errorf("%s: defect map: %w", c.name, err)
				}
				o := heur
				o.Defects, o.DefectSeed, o.MarginAware = dm, seed, true
				cases = append(cases, robustCase{fmt.Sprintf("%s/spare%.0f%%/s%d", c.name, rate*100, seed), c, o})
			}
		}
		for _, seed := range robustDefectSeeds {
			o := heur
			o.DefectRate, o.DefectSeed, o.MarginAware = robustRates[0], seed, true
			cases = append(cases, robustCase{fmt.Sprintf("%s/exact1%%/s%d", c.name, seed), c, o})
		}
	}
	dm, err := spareMap(cs[2], robustRates[0], robustDefectSeeds[0])
	if err != nil {
		return nil, nil, fmt.Errorf("int2float: defect map: %w", err)
	}
	o := heur
	o.Defects, o.DefectSeed = dm, robustDefectSeeds[0]
	cases = append(cases, robustCase{"int2float/spare1%/s1", cs[2], o})
	for _, c := range cs {
		o := heur
		o.Layers = 3
		cases = append(cases, robustCase{c.name + "/k3", c, o})
	}
	return cases, func() {}, nil
}

// unplaceable reports whether err is the typed placement refusal, which
// robust counts in placed_frac rather than as a failure.
func unplaceable(err error) bool {
	var u *xbar.Unplaceable
	var u3 *xbar3d.Unplaceable3D
	return errors.As(err, &u) || errors.As(err, &u3)
}

// robustState carries what a robust run accumulates across passes.
type robustState struct {
	t         *tally
	margin    float64 // worst Monte Carlo margin of the clean 3D stacks
	placedMin float64 // and of the defect-placed 2D designs
	repair    float64
	placeMS   float64
	tr        *Tracer // nil when untraced
	// overhead holds, per case, traced minus untraced synthesis time.
	overhead map[string][]float64
}

func robustRun(ctx context.Context, env any, seconds time.Duration, tr *Tracer, t *tally, l layers) {
	cases := env.([]robustCase)
	st := &robustState{t: t, margin: math.Inf(1), placedMin: math.Inf(1),
		tr: tr, overhead: map[string][]float64{}}
	t.closedLoop(seconds, func() {
		for _, rc := range cases {
			cctx, cancel := context.WithTimeout(ctx, safetyCap)
			// A case that delivered an outcome only as its deadline hit
			// counts as a failure too: the cap is not a budget.
			if st.once(cctx, rc) && cctx.Err() != nil {
				t.fail("%s: reached the %v safety cap", rc.key, safetyCap)
			}
			cancel()
		}
	})
	if tr == nil {
		return
	}
	passes := float64(len(t.passes))
	l.fromSpans(Aggregate(tr.Spans()), len(t.passes))
	l["core.place_busy_ms"] = st.placeMS / passes
	l["core.repair_attempts"] = st.repair / passes
	if !math.IsInf(st.margin, 1) {
		l["spice.margin_min_v"] = st.margin
	}
	if !math.IsInf(st.placedMin, 1) {
		l["spice.placed_margin_min_v"] = st.placedMin
	}
	l["core.trace_overhead_ms"] = overheadMS(st.overhead)
}

// cleanOpts strips the defect-aware part of opts.
func cleanOpts(o core.Options) core.Options {
	o.Defects, o.DefectRate, o.DefectSeed, o.MarginAware = nil, 0, 0, false
	return o
}

// once runs one case: synthesis (with defect-aware placement for 2D
// cases), verification, and a Monte Carlo margin run. Traced runs add the
// staged replica of the clean synthesis and check it against
// SynthesizeContext. It reports whether the case delivered an outcome, a
// verified design or a typed refusal, rather than a failure.
func (st *robustState) once(ctx context.Context, rc robustCase) bool {
	t := st.t
	t.attempted++
	var root *Active
	if st.tr != nil {
		root = st.tr.Root("perfbench.case")
	}
	defer root.End()
	opStart := t.now()
	sp := root.Child("parse.Parse")
	nw, err := parse.Parse(bytes.NewReader(rc.c.blif), parse.BLIF)
	sp.End()
	if err != nil {
		t.fail("%s: parse: %v", rc.key, err)
		return false
	}
	layered := rc.opts.Layers > 2
	var refDur time.Duration
	if st.tr != nil {
		syn := root.Child("core.synthesize")
		sd, err := stagedSynth(ctx, syn, nw, cleanOpts(rc.opts))
		syn.End()
		if err != nil {
			t.fail("%s: staged synthesis: %v", rc.key, err)
			return false
		}
		refStart := t.now()
		ref, err := core.SynthesizeContext(ctx, nw, cleanOpts(rc.opts))
		refDur = t.now() - refStart
		if err != nil {
			t.fail("%s: reference synthesis: %v", rc.key, err)
			return false
		}
		if !replicaMatches(t, rc.key, sd, ref) {
			return false
		}
		st.overhead[rc.key] = append(st.overhead[rc.key], ms(syn.Elapsed())-ms(refDur))
	}

	callStart := t.now()
	res, err := core.SynthesizeContext(ctx, nw, rc.opts)
	call := t.now() - callStart
	if !layered {
		st.placeMS += ms(call) - ms(refDur)
		t.placeTried++
	}
	t.calls.add(rc.key, ms(call))
	if err != nil {
		if !layered && unplaceable(err) {
			t.op(rc.key, t.now()-opStart)
			t.delivered++
			return true
		}
		t.fail("%s: synthesis: %v", rc.key, err)
		return false
	}

	src := rc.c.src
	if layered {
		sp := root.Child("xbar3d.verify")
		err := verify3D(res.Design3D, src)
		sp.End()
		if err != nil {
			t.fail("%s: %v", rc.key, err)
			return false
		}
		sp = root.Child("spice.montecarlo3d")
		rep, err := margin3D(ctx, res.Design3D, src)
		sp.Set("trials", float64(rep.Trials))
		sp.End()
		if err != nil {
			t.fail("%s: monte carlo: %v", rc.key, err)
			return false
		}
		st.margin = math.Min(st.margin, rep.WorstMargin)
		s := res.Design3D.Stats()
		t.design(rc.key, s.S, s.D)
	} else {
		sp := root.Child("xbar.verify")
		err := verify2D(res.Design, src)
		if err == nil {
			err = verify2D(res.Effective, src)
		}
		sp.Set("vectors", float64(2*vectorsFor(src.NumInputs())))
		sp.End()
		if err != nil {
			t.fail("%s: %v", rc.key, err)
			return false
		}
		sp = root.Child("spice.montecarlo")
		rep, err := spice.MonteCarloContext(ctx, res.Design, src.Eval, src.NumInputs(),
			spice.Env{Model: spice.HighContrast(), Defects: res.Defects, Placement: res.Placement},
			spice.Variation{SigmaOn: mcSigma, SigmaOff: mcSigma},
			spice.MonteCarloOptions{Trials: mcTrials, Vectors: mcVectors, Seed: mcSeed})
		sp.Set("trials", float64(rep.Trials))
		sp.End()
		if err != nil {
			t.fail("%s: monte carlo: %v", rc.key, err)
			return false
		}
		st.placedMin = math.Min(st.placedMin, rep.WorstMargin)
		st.repair += float64(res.RepairAttempts)
		t.placed++
		s := res.Design.Stats()
		t.design(rc.c.name, s.S, s.D)
	}
	t.op(rc.key, t.now()-opStart)
	t.delivered++
	return true
}
