package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"compact/internal/bdd"
	"compact/internal/bench"
	"compact/internal/core"
	"compact/internal/labeling"
	"compact/internal/logic"
	"compact/internal/parse"
	"compact/internal/xbar"
)

// safetyCap bounds one operation. No healthy run comes near it; an exact
// solve that reaches it returns an unproven labeling, which counts as a
// failure.
const safetyCap = 150 * time.Second

// synthWorkload is a closed-loop workload with one caller: it synthesizes
// and verifies a fixed list of circuits, pass after pass.
type synthWorkload struct {
	names          []string
	opts           core.Options
	requireOptimal bool
	// formal runs the symbolic verifier once per circuit in traced runs.
	formal bool
}

// epflExact runs ctrl four times a pass, two before cavlc and two after:
// a ctrl solve takes about 0.1 s against cavlc's 6 s, and a single call
// caught the core's speed of one moment, which moved synth_geomean_ms by
// 10% between runs.
var epflExact = synthWorkload{
	names:          []string{"ctrl", "ctrl", "cavlc", "ctrl", "ctrl"},
	opts:           core.Options{},
	requireOptimal: true,
}

var suiteHeuristic = synthWorkload{
	names:  bench.Names(),
	opts:   core.Options{Method: labeling.MethodHeuristic},
	formal: true,
}

// setup builds the circuits (seeded BLIF text) and warms the parser. The
// list keeps its order under every seed: what one circuit leaves to the
// garbage collector slows the next, so a seeded order would move the
// figures with the seed.
func (w synthWorkload) setup(rng *rand.Rand) ([]circuit, error) {
	cs, err := makeCircuits(w.names, rng)
	if err != nil {
		return nil, err
	}
	for _, c := range cs {
		if _, err := parse.Parse(bytes.NewReader(c.blif), parse.BLIF); err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
	}
	return cs, nil
}

// run measures passes over the list for at least `seconds`, finishing the
// pass in progress. Traced runs replace each synthesis with the staged
// replica and check it against an untraced SynthesizeContext call.
func (w synthWorkload) run(ctx context.Context, cs []circuit, seconds time.Duration, tr *Tracer, t *tally, l layers) {
	ts := &tracedRun{tr: tr, l: l, overhead: map[string][]float64{},
		designs: map[string]*xbar.Design{}, srcs: map[string]*logic.Network{}}
	t.closedLoop(seconds, func() {
		for _, c := range cs {
			t.attempted++
			t.placeTried++
			cctx, cancel := context.WithTimeout(ctx, safetyCap)
			var ok bool
			if tr == nil {
				ok = w.once(cctx, c, t)
			} else {
				ok = w.onceTraced(cctx, c, t, ts)
			}
			cancel()
			if ok {
				t.placed++
				t.delivered++
			}
		}
	})
	if tr == nil {
		return
	}
	if w.formal {
		formalOnce(ts, t)
	}
	l.fromSpans(Aggregate(tr.Spans()), len(t.passes))
	l["core.trace_overhead_ms"] = overheadMS(ts.overhead)
}

// tracedRun is the state a traced closed loop keeps besides its spans.
type tracedRun struct {
	tr *Tracer
	l  layers
	// overhead holds, per input, traced minus untraced synthesis time.
	overhead map[string][]float64
	// designs keeps each circuit's staged design for the symbolic check.
	designs map[string]*xbar.Design
	srcs    map[string]*logic.Network
}

// overheadMS sums each input's median tracing overhead.
func overheadMS(overhead map[string][]float64) float64 {
	var over float64
	for _, xs := range overhead {
		over += median(xs)
	}
	return over
}

// once is one untraced operation: parse, SynthesizeContext, verify.
func (w synthWorkload) once(ctx context.Context, c circuit, t *tally) bool {
	opStart := t.now()
	nw, err := parse.Parse(bytes.NewReader(c.blif), parse.BLIF)
	if err != nil {
		t.fail("%s: parse: %v", c.name, err)
		return false
	}
	callStart := t.now()
	res, err := core.SynthesizeContext(ctx, nw, w.opts)
	call := t.now() - callStart
	if err != nil {
		t.fail("%s: synthesis: %v", c.name, err)
		return false
	}
	if w.requireOptimal && !res.Labeling.Optimal {
		t.fail("%s: labeling not proven optimal within the %v safety cap", c.name, safetyCap)
		return false
	}
	if err := verify2D(res.Design, c.src); err != nil {
		t.fail("%s: %v", c.name, err)
		return false
	}
	t.op(c.name, t.now()-opStart)
	t.calls.add(c.name, ms(call))
	st := res.Design.Stats()
	t.design(c.name, st.S, st.D)
	return true
}

// onceTraced runs the staged replica under spans, then the untraced
// SynthesizeContext on the same network, and requires equal designs.
func (w synthWorkload) onceTraced(ctx context.Context, c circuit, t *tally, ts *tracedRun) bool {
	root := ts.tr.Root("perfbench.circuit")
	defer root.End()
	sp := root.Child("parse.Parse")
	nw, err := parse.Parse(bytes.NewReader(c.blif), parse.BLIF)
	sp.End()
	if err != nil {
		t.fail("%s: parse: %v", c.name, err)
		return false
	}
	syn := root.Child("core.synthesize")
	st, err := stagedSynth(ctx, syn, nw, w.opts)
	syn.End()
	if err != nil {
		t.fail("%s: staged synthesis: %v", c.name, err)
		return false
	}
	sp = root.Child("xbar.verify")
	err = verify2D(st.design, c.src)
	sp.Set("vectors", float64(vectorsFor(c.src.NumInputs())))
	sp.End()
	if err != nil {
		t.fail("%s: staged design: %v", c.name, err)
		return false
	}
	if w.requireOptimal && !st.sol.Optimal {
		t.fail("%s: staged labeling not proven optimal", c.name)
		return false
	}

	callStart := t.now()
	ref, err := core.SynthesizeContext(ctx, nw, w.opts)
	call := t.now() - callStart
	if err != nil {
		t.fail("%s: reference synthesis: %v", c.name, err)
		return false
	}
	if !replicaMatches(t, c.name, st, ref) {
		return false
	}
	ts.overhead[c.name] = append(ts.overhead[c.name], ms(syn.Elapsed())-ms(call))
	ts.designs[c.name], ts.srcs[c.name] = st.design, c.src
	t.op(c.name, call)
	t.calls.add(c.name, ms(call))
	s := st.design.Stats()
	t.design(c.name, s.S, s.D)
	return true
}

// formalOnce runs the symbolic verifier once on every circuit's design,
// recording node-limit hits as a layer counter rather than a failure: the
// verifier's BDD outgrowing its limit proves nothing either way.
func formalOnce(ts *tracedRun, t *tally) {
	for name, d := range ts.designs {
		sp := ts.tr.Root("xbar.formal")
		err := xbar.FormalVerify(d, ts.srcs[name], 0)
		sp.End()
		switch {
		case errors.Is(err, bdd.ErrNodeLimit):
			ts.l["xbar.formal_limit_hits"]++
		case err != nil:
			t.fail("%s: formal verification: %v", name, err)
		}
		ts.l["xbar.formal_busy_ms"] += ms(sp.Elapsed())
	}
}
