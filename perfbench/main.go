// Command perfbench is COMPACT's benchmark: one workload per run, measured
// end to end with tracing off, or layer by layer from spans with tracing
// on. It builds its inputs from --seed, measures for --seconds, checks
// every output, and prints one JSON result object as the last line of
// standard output. It exits non-zero when any output is wrong.
//
//	bash perfbench/run.sh --workload epfl-exact --seed 1 --seconds 15 --trace 0
//
// See perfbench/NOTES.md for the workloads, the metrics and what each
// per-layer metric is expected to move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"time"
)

// setupRepeats is how many times a run performs its set-up; setup_s is
// the median of their CPU times.
const setupRepeats = 15

// outDir holds the span files and scratch state, relative to the
// checkout root the benchmark runs from.
const outDir = ".bench_build/perfbench"

// workload is one named benchmark workload. setup builds everything the
// measured run needs, traced or not, and returns it plus a release
// function; run measures.
// ref is the reference kernel whose speed follows the workload's
// (speed.go).
type workload struct {
	setup func(rng *rand.Rand, seconds time.Duration, traced bool) (env any, release func(), err error)
	run   func(ctx context.Context, env any, seconds time.Duration, tr *Tracer, t *tally, l layers)
	ref   refKernel
}

// robust's time is mostly spice's nodal analysis; the integer kernel's
// speed moved against robust's own in repeated runs, the floating-point
// kernel's did not.
var workloads = map[string]workload{
	"epfl-exact":      synthEntry(epflExact),
	"suite-heuristic": synthEntry(suiteHeuristic),
	"robust":          {setup: robustSetup, run: robustRun, ref: fpKernel},
	"service-mix":     {setup: serviceSetup, run: serviceRun, ref: intKernel},
}

func synthEntry(w synthWorkload) workload {
	return workload{
		ref: intKernel,
		setup: func(rng *rand.Rand, _ time.Duration, _ bool) (any, func(), error) {
			cs, err := w.setup(rng)
			return cs, func() {}, err
		},
		run: func(ctx context.Context, env any, seconds time.Duration, tr *Tracer, t *tally, l layers) {
			w.run(ctx, env.([]circuit), seconds, tr, t, l)
		},
	}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: epfl-exact, suite-heuristic, robust or service-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 15, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	// One P: the benchmark runs on a few cores of a shared host, where a
	// run spread over all of them measures how the host schedules it.
	// With one P, branch and bound is also the serial, deterministic
	// search, and the Monte Carlo and server worker pools default to one.
	runtime.GOMAXPROCS(1)
	res, err := measure(*name, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// measure runs set-up setupRepeats times, then the workload once. An
// untraced run times set-up and operations in process CPU time scaled to
// the reference core (speed.go); a traced one in wall time, like its
// spans.
func measure(name string, w workload, seed int64, seconds time.Duration, traced bool) (*result, error) {
	now := wallNow
	var meter *speedMeter
	if !traced {
		meter = startSpeedMeter(w.ref)
		now = meter.cpu
	}
	var env any
	var release func()
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if release != nil {
			release()
		}
		start := now()
		var err error
		env, release, err = w.setup(rand.New(rand.NewSource(seed)), seconds, traced)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, (now() - start).Seconds())
	}

	var tr *Tracer
	if traced {
		tr = NewTracer(seed)
	}
	t := newTally(now)
	t.heap = startHeapSampler()
	l := layers{}
	w.run(context.Background(), env, seconds, tr, t, l)
	peak := t.heap.stop(t.passPeaks)
	if meter != nil {
		speed, samples := meter.stop()
		fmt.Fprintf(os.Stderr, "perfbench: %d %s reference kernel samples: median core speed %.4g of the reference core\n",
			samples, meter.kernel.name, speed)
	}
	release()

	p90, _ := percentile(t.ops, 0.90)
	p99, measured := percentile(t.ops, 0.99)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d attempted, %d failed, %d passes; %d latency samples: p50 %.4g ms, p90 %.4g ms, p99 %.4g ms (%d+ beyond: %v)\n",
		name, seed, t.attempted, t.failed, len(t.passes), len(t.ops), median(t.ops), p90, p99, minBeyond, measured)
	res := &result{Attempted: t.attempted, Failed: t.failed}
	if traced {
		res.Metrics = l.metrics()
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := tr.Write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.Spans()), path)
	} else {
		res.Metrics = t.endToEnd()
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["peak_heap_mb"] = metric{peak / (1 << 20), "MB"}
		if err := checkNames(res.Metrics, endToEndUnits); err != nil {
			return nil, err
		}
	}
	res.Correct = t.failed == 0 && t.attempted > 0
	if t.attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
	}
	return res, nil
}

// checkNames requires the reported metrics to be exactly the declared ones.
func checkNames(got map[string]metric, want map[string]string) error {
	var missing []string
	for name, unit := range want {
		if m, ok := got[name]; !ok || m.Unit != unit {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 || len(got) != len(want) {
		sort.Strings(missing)
		return fmt.Errorf("metric set mismatch: missing or mis-unitted %v", missing)
	}
	return nil
}

// heapSampler reads the Go heap's object bytes (live plus not yet swept)
// every few milliseconds.
type heapSampler struct {
	stopc   chan struct{}
	wg      sync.WaitGroup
	mu      sync.Mutex
	samples []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		if sample[0].Value.Kind() == metrics.KindUint64 {
			h.mu.Lock()
			h.samples = append(h.samples, float64(sample[0].Value.Uint64()))
			h.mu.Unlock()
		}
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			read()
			select {
			case <-h.stopc:
				read()
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// mark returns the number of samples taken so far.
func (h *heapSampler) mark() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// peak returns the largest sample taken between two marks.
func (h *heapSampler) peak(from, to int) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return slices.Max(append(h.samples[from:to:to], 0))
}

// stop ends sampling and returns the run's peak heap in bytes: the median
// of the per-pass peaks when the run recorded them, else the median of the
// peaks of the four quarters of the samples, so one collection that
// happens to run late does not set the figure.
func (h *heapSampler) stop(passPeaks []float64) float64 {
	close(h.stopc)
	h.wg.Wait()
	if len(passPeaks) > 0 {
		return median(passPeaks)
	}
	return quarterPeak(h.samples)
}
