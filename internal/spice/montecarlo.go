package spice

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"compact/internal/faultinject"
	"compact/internal/xbar"
)

// Per-device Monte Carlo
//
// MonteCarloContext repeats the margin analysis under randomized device
// variation. Unlike the original global-model approximation (one scaled
// DeviceModel per trial), every trial samples a full per-device
// ResistanceMap: each device of the physical array draws its own
// log-normal R_on/R_off, so a single marginal device in the middle of a
// long sneak path — the failure mode the Mixed-Mode In-Memory Computing
// literature describes — is visible, and failing trials can be attributed
// to the concrete devices on the failing read paths (critical cells).
//
// Determinism contract: for a fixed (design, Env, Variation, options) the
// report is byte-identical across runs and worker counts. Trial t draws
// from seed Seed + (t+1)*0x9e3779b97f4a7c15, every trial checks the same
// shared vector set, and results merge in trial order regardless of
// scheduling. The only nondeterminism is which trials complete when the
// deadline expires mid-run — the anytime path, marked Truncated.
//
// Deadline contract: the context is checked before every trial and every
// vector. Expiry with at least one completed trial degrades to a
// best-so-far report over the completed trials (Truncated=true, nil
// error); expiry before any trial completes returns the context error. A
// failed simulation (singular system, bad resistance map) aborts the whole
// run and returns a zero report with a wrapped error — never a
// half-populated report next to a non-nil error.

// Monte Carlo option defaults.
const (
	DefaultTrials   = 32
	DefaultVectors  = 64
	DefaultTopCells = 8
)

// mcSeedStride decorrelates per-trial resistance draws (splitmix64's odd
// gamma, the same stride the placement stream uses for its greedy seeds).
const mcSeedStride = 0x9e3779b97f4a7c15

// MonteCarloOptions tunes MonteCarloContext. The zero value is the
// production default; negative Trials/Vectors/Workers are rejected.
type MonteCarloOptions struct {
	// Trials is the number of device-variation samples (default 32).
	Trials int
	// Vectors is the number of input vectors checked per trial (default
	// 64). Clamped to 2^nVars: small functions are enumerated exhaustively
	// instead of resampled.
	Vectors int
	// Workers bounds the parallel trial workers (default GOMAXPROCS).
	Workers int
	// Seed is the deterministic root seed, uint64 per the internal/defect
	// convention.
	Seed uint64
	// TopCells caps the critical-cell list (default 8; negative disables
	// attribution entirely).
	TopCells int
}

func (o MonteCarloOptions) withDefaults() MonteCarloOptions {
	if o.Trials == 0 {
		o.Trials = DefaultTrials
	}
	if o.Vectors == 0 {
		o.Vectors = DefaultVectors
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.TopCells == 0 {
		o.TopCells = DefaultTopCells
	}
	return o
}

// Key returns the canonical content string of the options fields that
// shape the sampled trials — a fragment of compactd's /v1/margin cache
// key. Workers is deliberately absent: the report is worker-count
// invariant.
func (o MonteCarloOptions) Key() string {
	c := o.withDefaults()
	return fmt.Sprintf("trials=%d|vectors=%d|seed=%d|topcells=%d", c.Trials, c.Vectors, c.Seed, c.TopCells)
}

// CriticalCell names one logical design cell and how often its device sat
// on a failing read path across failing trials. Layer is the device plane
// for K-layer stacks (always 0 for 2D designs, where it is elided from
// JSON).
type CriticalCell struct {
	Layer int `json:"layer,omitempty"`
	Row   int `json:"row"`
	Col   int `json:"col"`
	Flips int `json:"flips"`
}

// MonteCarloReport summarizes a variation analysis.
type MonteCarloReport struct {
	Trials          int  `json:"trials"`           // trials that completed (== RequestedTrials unless Truncated)
	RequestedTrials int  `json:"requested_trials"` // trials asked for
	Vectors         int  `json:"vectors"`          // input vectors checked per trial (after clamping)
	Exhaustive      bool `json:"exhaustive"`       // vectors enumerate all 2^nVars assignments
	FailTrials      int  `json:"fail_trials"`      // completed trials with no separating threshold
	// WorstMinOn / WorstMaxOff are the extreme read voltages across all
	// completed trials. A side with no observations reports its ideal rail
	// (Vin for MinOn, 0 for MaxOff) so the fields — and WorstMargin, their
	// difference — stay finite and JSON-representable for constant
	// functions.
	WorstMinOn  float64 `json:"worst_min_on"`
	WorstMaxOff float64 `json:"worst_max_off"`
	WorstMargin float64 `json:"worst_margin"`
	// Yield is the fraction of completed trials in which a single
	// threshold separates every checked vector's 0s from its 1s.
	Yield float64 `json:"yield"`
	// Truncated marks an anytime report: the deadline expired with only
	// Trials of RequestedTrials done.
	Truncated bool `json:"truncated,omitempty"`
	// Critical lists the devices whose spread most often flipped an
	// output, worst first (ties broken by position).
	Critical []CriticalCell `json:"critical_cells,omitempty"`
}

// MonteCarloContext runs the per-device variation analysis described in
// the package comment above, in parallel on a bounded worker pool, under
// the shared-deadline contract. A K-layer stack draws an independent map
// per device plane each trial, and its critical cells carry their device
// plane in Layer.
func MonteCarloContext(ctx context.Context, d *xbar.Design, ref func([]bool) []bool, nVars int,
	env Env, v Variation, opts MonteCarloOptions) (MonteCarloReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := faultinject.Err(faultinject.StageSpice); err != nil {
		return MonteCarloReport{}, fmt.Errorf("spice: monte carlo: %w", err)
	}
	if opts.Trials < 0 || opts.Vectors < 0 || opts.Workers < 0 {
		return MonteCarloReport{}, fmt.Errorf("spice: negative trials/vectors/workers (%d/%d/%d)",
			opts.Trials, opts.Vectors, opts.Workers)
	}
	if nVars < 0 {
		return MonteCarloReport{}, fmt.Errorf("spice: negative nVars %d", nVars)
	}
	if err := v.Validate(); err != nil {
		return MonteCarloReport{}, err
	}
	opts = opts.withDefaults()
	nw, err := compile(d, env)
	if err != nil {
		return MonteCarloReport{}, err
	}

	// The shared vector set: every trial checks the same assignments, so
	// trials differ only in their device draw. Small functions enumerate
	// all 2^nVars assignments instead of resampling duplicates.
	exhaustive := false
	if nVars < 31 && opts.Vectors >= 1<<nVars {
		opts.Vectors = 1 << nVars
		exhaustive = true
	}
	vecs := make([][]bool, opts.Vectors)
	wants := make([][]bool, opts.Vectors)
	state := opts.Seed ^ variationSalt ^ 0x7ec70_95f
	for s := range vecs {
		in := make([]bool, nVars)
		if exhaustive {
			for i := range in {
				in[i] = s&(1<<uint(i)) != 0
			}
		} else {
			for i := range in {
				in[i] = splitmix64(&state)&1 != 0
			}
		}
		vecs[s] = in
		wants[s] = append([]bool(nil), ref(in)...)
		if len(wants[s]) != len(nw.outputs) {
			return MonteCarloReport{}, fmt.Errorf("spice: ref yields %d outputs but the design has %d",
				len(wants[s]), len(nw.outputs))
		}
	}

	type trial struct {
		done   bool
		fail   bool
		minOn  float64
		maxOff float64
		onVec  int // vector achieving minOn (-1 = no logic-1 observation)
		offVec int // vector achieving maxOff (-1 = no logic-0 observation)
	}
	out := make([]trial, opts.Trials)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next    atomic.Int64
		errOnce sync.Once
		simErr  error
		wg      sync.WaitGroup
	)
	workers := min(opts.Workers, opts.Trials)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sv := newSolver()
			for {
				t := int(next.Add(1)) - 1
				if t >= opts.Trials || runCtx.Err() != nil {
					return
				}
				res, err := nw.sample(v, opts.Seed+uint64(t+1)*mcSeedStride)
				if err != nil {
					errOnce.Do(func() { simErr = err; cancel() })
					return
				}
				nw.trial(sv, res)
				tr := trial{minOn: math.Inf(1), maxOff: math.Inf(-1), onVec: -1, offVec: -1}
				aborted := false
				for s, in := range vecs {
					if runCtx.Err() != nil {
						aborted = true // deadline mid-trial: drop the partial trial
						break
					}
					volts, err := nw.simulate(sv, in)
					if err != nil {
						errOnce.Do(func() { simErr = fmt.Errorf("trial %d: %w", t, err); cancel() })
						return
					}
					for o, w := range wants[s] {
						if w {
							if volts[o] < tr.minOn {
								tr.minOn, tr.onVec = volts[o], s
							}
						} else if volts[o] > tr.maxOff {
							tr.maxOff, tr.offVec = volts[o], s
						}
					}
				}
				if aborted {
					continue
				}
				tr.fail = !(tr.minOn > tr.maxOff)
				tr.done = true
				out[t] = tr
			}
		}()
	}
	wg.Wait()
	if simErr != nil {
		return MonteCarloReport{}, fmt.Errorf("spice: monte carlo: %w", simErr)
	}

	rep := MonteCarloReport{
		RequestedTrials: opts.Trials,
		Vectors:         opts.Vectors,
		Exhaustive:      exhaustive,
		WorstMinOn:      math.Inf(1),
		WorstMaxOff:     math.Inf(-1),
	}
	blame := map[[3]int]int{}
	for t := range out {
		tr := &out[t]
		if !tr.done {
			continue
		}
		rep.Trials++
		if tr.minOn < rep.WorstMinOn {
			rep.WorstMinOn = tr.minOn
		}
		if tr.maxOff > rep.WorstMaxOff {
			rep.WorstMaxOff = tr.maxOff
		}
		if tr.fail {
			rep.FailTrials++
			if opts.TopCells > 0 {
				nw.blameTrial(vecs, tr.onVec, tr.offVec, blame)
			}
		}
	}
	if rep.Trials == 0 {
		return MonteCarloReport{}, fmt.Errorf("spice: monte carlo: %w", ctx.Err())
	}
	rep.Truncated = rep.Trials < rep.RequestedTrials
	rep.Yield = float64(rep.Trials-rep.FailTrials) / float64(rep.Trials)
	if math.IsInf(rep.WorstMinOn, 1) {
		rep.WorstMinOn = nw.model.Vin // no logic-1 observations: ideal rail
	}
	if math.IsInf(rep.WorstMaxOff, -1) {
		rep.WorstMaxOff = 0 // no logic-0 observations: ideal rail
	}
	rep.WorstMargin = rep.WorstMinOn - rep.WorstMaxOff
	rep.Critical = topCells(blame, opts.TopCells)
	return rep, nil
}

// MonteCarlo3DContext is MonteCarloContext on a clean stack.
//
// Deprecated: call MonteCarloContext with Env{Model: base}.
func MonteCarlo3DContext(ctx context.Context, d *xbar.Design, ref func([]bool) []bool, nVars int,
	base DeviceModel, v Variation, opts MonteCarloOptions) (MonteCarloReport, error) {
	return MonteCarloContext(ctx, d, ref, nVars, Env{Model: base}, v, opts)
}

// blameTrial charges the devices most plausibly responsible for a failing
// trial, from sneak-path membership under the trial's two worst reads:
// for the worst logic-1 read, every conducting cell in the driven
// component (the path members whose raised resistance starves the read;
// in a stack that includes the via stitches — a starved stitch severs the
// folded wordline); for the worst logic-0 read, every off-state cell
// bordering the driven component (the leakage devices feeding the false
// read). Attribution is over logical design cells keyed (plane, row, col);
// bridge devices on spare lines are a placement-level hazard reported
// through the margin-aware placement objective instead.
func (nw *network) blameTrial(vecs [][]bool, onVec, offVec int, blame map[[3]int]int) {
	charge := func(vec int, conducting bool) {
		if vec < 0 {
			return
		}
		in := vecs[vec]
		uf := newUnionFind(nw.n)
		for _, pl := range nw.planes {
			for r := 0; r < pl.cells.Rows(); r++ {
				cs, es := pl.cells.Row(r)
				for i, c := range cs {
					if es[i].Conducts(in) {
						uf.union(pl.rowBase+r, pl.colBase+c)
					}
				}
			}
		}
		driven := uf.find(nw.input)
		for p, pl := range nw.planes {
			for r := 0; r < pl.cells.Rows(); r++ {
				cs, es := pl.cells.Row(r)
				for c := 0; c < pl.cells.Cols(); c++ {
					var e xbar.Entry // Off until the row cursor reaches a device
					if len(cs) > 0 && cs[0] == c {
						e, cs, es = es[0], cs[1:], es[1:]
					}
					on := e.Conducts(in)
					if on != conducting {
						continue
					}
					if on {
						if uf.find(pl.rowBase+r) == driven {
							blame[[3]int{p, r, c}]++
						}
					} else if uf.find(pl.rowBase+r) == driven || uf.find(pl.colBase+c) == driven {
						blame[[3]int{p, r, c}]++
					}
				}
			}
		}
	}
	charge(onVec, true)
	charge(offVec, false)
}

// topCells ranks the blame counts: most flips first, then (plane, row,
// col) position — a total deterministic order.
func topCells(blame map[[3]int]int, k int) []CriticalCell {
	if len(blame) == 0 || k <= 0 {
		return nil
	}
	cells := make([]CriticalCell, 0, len(blame))
	for pos, n := range blame {
		cells = append(cells, CriticalCell{Layer: pos[0], Row: pos[1], Col: pos[2], Flips: n})
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Flips != cells[j].Flips {
			return cells[i].Flips > cells[j].Flips
		}
		if cells[i].Layer != cells[j].Layer {
			return cells[i].Layer < cells[j].Layer
		}
		if cells[i].Row != cells[j].Row {
			return cells[i].Row < cells[j].Row
		}
		return cells[i].Col < cells[j].Col
	})
	if len(cells) > k {
		cells = cells[:k]
	}
	return cells
}

// unionFind is a minimal path-halving union-find over nanowire nodes, the
// same connectivity model xbar.Eval uses.
type unionFind []int

func newUnionFind(n int) unionFind {
	uf := make(unionFind, n)
	for i := range uf {
		uf[i] = i
	}
	return uf
}

func (uf unionFind) find(x int) int {
	for uf[x] != x {
		uf[x] = uf[uf[x]]
		x = uf[x]
	}
	return x
}

func (uf unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra != rb {
		uf[ra] = rb
	}
}
