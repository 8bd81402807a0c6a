package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"compact/internal/logic"
	"compact/internal/spice"
	"compact/internal/xbar"
	"compact/internal/xbar3d"
)

// Verification settings: exhaustive up to exhaustiveLimit inputs, seeded
// random vectors beyond.
const (
	exhaustiveLimit = 20
	verifySamples   = 4096
	verifySeed      = 1
)

// Monte Carlo settings of the robust workload's margin runs.
const (
	mcSigma   = 0.05
	mcTrials  = 8
	mcVectors = 32
	mcSeed    = 7
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// vectorsFor is the number of assignments verification checks.
func vectorsFor(nIn int) int {
	if nIn <= exhaustiveLimit {
		return 1 << nIn
	}
	return verifySamples
}

// verify2D checks a 2D design against the generator's network.
func verify2D(d *xbar.Design, src *logic.Network) error {
	if bad := d.VerifyAgainst64(src.Eval64, src.NumInputs(), exhaustiveLimit, verifySamples, verifySeed); bad != nil {
		return fmt.Errorf("design disagrees with the source network on %v", bad)
	}
	return nil
}

// verify3D proves a layered design equal to the generator's network and
// also runs the word-parallel vector check.
func verify3D(d *xbar3d.Design3D, src *logic.Network) error {
	if err := xbar3d.FormalVerify3D(d, src, 0); err != nil {
		return err
	}
	if bad := d.VerifyAgainst64(src.Eval64, src.NumInputs(), exhaustiveLimit, verifySamples, verifySeed); bad != nil {
		return fmt.Errorf("layered design disagrees with the source network on %v", bad)
	}
	return nil
}

// margin3D is the worst Monte Carlo read margin of a clean layered
// stack: the high-contrast device model, 5% lognormal spread on both
// resistances, fixed trial and vector counts and a fixed seed, so the
// margin is deterministic.
func margin3D(ctx context.Context, d *xbar3d.Design3D, src *logic.Network) (spice.MonteCarloReport, error) {
	return spice.MonteCarlo3DContext(ctx, d, src.Eval, src.NumInputs(), spice.HighContrast(),
		spice.Variation{SigmaOn: mcSigma, SigmaOff: mcSigma},
		spice.MonteCarloOptions{Trials: mcTrials, Vectors: mcVectors, Seed: mcSeed})
}

// cpuNow is the CPU time the process has used, user plus system. On a
// shared host it leaves out the time the host gave to other guests
// (steal) and the time the process waited for a CPU, which wall time
// counts; with one P and one caller it equals wall time on an idle core.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// wallStart anchors wallNow.
var wallStart = time.Now()

// wallNow is the monotonic wall time since the process started.
func wallNow() time.Duration { return time.Since(wallStart) }

// tally accumulates what one measured run saw.
type tally struct {
	// now is the clock operations and passes are timed with: cpuNow in
	// untraced runs, wallNow in traced runs, whose spans are wall time.
	now func() time.Duration
	// ops are operation times in ms: HTTP requests timed from their due
	// times (traced open loop), each synchronous request (service passes),
	// or each input's median operation time (closed loop, filled in from
	// opsBy by closedLoop).
	ops   []float64
	opsBy *latencies
	// calls are the synthesis call times per input, in ms.
	calls *latencies
	// delivered counts verified designs over all passes; circuits_per_s
	// divides it by the number of passes and their median duration.
	delivered int
	passes    []float64 // pass durations on the now clock, in seconds
	heap      *heapSampler
	passPeaks []float64 // closed-loop per-pass peak heap bytes
	// designs holds S and D per distinct design.
	designs map[string][2]int
	// placed / placeTried: designs that ended verified on their target
	// array, out of those attempted.
	placed, placeTried int
	attempted, failed  int
}

func newTally(now func() time.Duration) *tally {
	return &tally{now: now, calls: newLatencies(), opsBy: newLatencies(), designs: map[string][2]int{}}
}

// fail records one failed operation and reports it on stderr.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.failed <= 20 {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
	}
}

func (t *tally) design(key string, s, d int) { t.designs[key] = [2]int{s, d} }

// op records one closed-loop operation time for an input.
func (t *tally) op(key string, d time.Duration) { t.opsBy.add(key, ms(d)) }

// closedLoop runs timedPasses with one caller, each pass timed whole on
// the tally's clock. The latency distribution of a closed loop is taken
// over its inputs: each input's median operation time is one sample, so
// one slow call moves it less than it would a distribution of single
// calls.
func (t *tally) closedLoop(seconds time.Duration, pass func()) {
	t.timedPasses(seconds, func() time.Duration {
		start := t.now()
		pass()
		return t.now() - start
	})
	var b strings.Builder
	for _, k := range t.opsBy.order {
		t.ops = append(t.ops, median(t.opsBy.by[k]))
		fmt.Fprintf(&b, " %s %.4g", k, t.ops[len(t.ops)-1])
	}
	fmt.Fprintf(os.Stderr, "perfbench: median operation time per input, ms:%s\n", b.String())
}

// timedPasses runs pass after pass within `seconds` of wall time: it
// starts another pass only while the last one, taking as long again,
// would end inside the window, and always runs at least one. Each pass
// starts from a collected heap; the tally records the time the pass
// returns and its peak heap.
func (t *tally) timedPasses(seconds time.Duration, pass func() time.Duration) {
	start := time.Now()
	for {
		runtime.GC()
		passWall, mark := time.Now(), t.heap.mark()
		busy := pass()
		t.passes = append(t.passes, busy.Seconds())
		t.passPeaks = append(t.passPeaks, t.heap.peak(mark, t.heap.mark()))
		if time.Since(start)+time.Since(passWall) > seconds {
			break
		}
	}
}

// endToEnd computes every end-to-end metric except setup_s and
// peak_heap_mb, which main adds.
func (t *tally) endToEnd() map[string]metric {
	var sumS, sumD int
	for _, sd := range t.designs {
		sumS += sd[0]
		sumD += sd[1]
	}
	p90, _ := percentile(t.ops, 0.90)
	placedFrac := 0.0
	if t.placeTried > 0 {
		placedFrac = float64(t.placed) / float64(t.placeTried)
	}
	rate := 0.0
	if n := len(t.passes); n > 0 {
		rate = float64(t.delivered) / float64(n) / median(t.passes)
	}
	return map[string]metric{
		"circuits_per_s":    {rate, "1/s"},
		"synth_geomean_ms":  {t.calls.geomeanOfMedians(), "ms"},
		"semiperimeter_sum": {float64(sumS), "count"},
		"maxdim_sum":        {float64(sumD), "count"},
		"placed_frac":       {placedFrac, "ratio"},
		"req_p50_ms":        {median(t.ops), "ms"},
		"req_p90_ms":        {p90, "ms"},
	}
}
