package main

import (
	"math"
	"runtime"
	"testing"
	"time"
)

func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, ok := percentile(xs, 0.99)
	if v != 990 || !ok {
		t.Fatalf("p99 of 1..1000 = %v (measured %v), want 990 with exactly 10 beyond", v, ok)
	}
	v, ok = percentile(xs[:999], 0.99)
	if v != 990 || ok {
		t.Fatalf("p99 of 1..999 = %v (measured %v), want 990 with only 9 beyond", v, ok)
	}
	if v, ok := percentile([]float64{3, 1, 2}, 0.5); v != 2 || ok {
		t.Fatalf("p50 of 3 samples = %v (measured %v), want 2, not measured", v, ok)
	}
	if _, ok := percentile(nil, 0.99); ok {
		t.Fatal("p99 of no samples reported as measured")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Fatalf("geomean(1, 100) = %v, want 10", got)
	}
	if got := geomean([]float64{2, 0}); got != 0 {
		t.Fatalf("geomean with a zero sample = %v, want 0", got)
	}
	// Each key counts once, whatever its sample count: a fast circuit
	// weighs as much as a slow one.
	l := newLatencies()
	for _, v := range []float64{1, 1, 1, 1, 9} {
		l.add("fast", v)
	}
	l.add("slow", 100)
	if got := l.geomeanOfMedians(); math.Abs(got-10) > 1e-9 {
		t.Fatalf("geomeanOfMedians = %v, want 10", got)
	}
}

func TestTallyEndToEnd(t *testing.T) {
	tl := newTally(wallNow)
	tl.design("a", 10, 6)
	tl.design("b", 20, 12)
	tl.design("a", 10, 6) // the same design twice counts once
	tl.placed, tl.placeTried = 3, 4
	tl.delivered, tl.passes = 30, []float64{2, 1.5, 3} // ten designs a pass, median pass 2 s
	m := tl.endToEnd()
	want := map[string]float64{
		"semiperimeter_sum": 30, "maxdim_sum": 18, "placed_frac": 0.75, "circuits_per_s": 5,
	}
	for name, v := range want {
		if m[name].Value != v {
			t.Errorf("%s = %v, want %v", name, m[name].Value, v)
		}
	}
}

func TestClosedLoopTakesMediansPerInput(t *testing.T) {
	tl := newTally(wallNow)
	tl.heap = startHeapSampler()
	defer tl.heap.stop(nil)
	passes := 0
	tl.closedLoop(0, func() {
		passes++
		for _, v := range []time.Duration{1, 1, 9} { // one slow call
			tl.op("a", v*time.Millisecond)
		}
		tl.op("b", 10*time.Millisecond)
	})
	if passes != 1 || len(tl.passes) != 1 {
		t.Fatalf("a zero window ran %d passes, recorded %d; want the one pass in progress", passes, len(tl.passes))
	}
	if len(tl.ops) != 2 || tl.ops[0] != 1 || tl.ops[1] != 10 {
		t.Fatalf("ops = %v, want each input's median [1 10]", tl.ops)
	}
}

func TestCPUClockSkipsSleep(t *testing.T) {
	start := cpuNow()
	time.Sleep(100 * time.Millisecond)
	if d := cpuNow() - start; d > 50*time.Millisecond {
		t.Fatalf("cpuNow advanced %v over a 100 ms sleep; it should count only CPU time", d)
	}
	start, wall := cpuNow(), time.Now()
	for cpuNow()-start < 20*time.Millisecond {
		if time.Since(wall) > 10*time.Second {
			t.Fatal("cpuNow did not advance 20 ms during 10 s of busy work")
		}
	}
}

func TestQuarterPeak(t *testing.T) {
	// One spike in the second quarter does not set the figure.
	xs := []float64{1, 2, 3, 2, 9, 2, 3, 1, 4, 2, 1, 3}
	if got := quarterPeak(xs); got != 3.5 {
		t.Fatalf("quarterPeak = %v, want the median of peaks 3, 9, 4, 3 = 3.5", got)
	}
	if got := quarterPeak([]float64{5, 7}); got != 7 {
		t.Fatalf("quarterPeak of two samples = %v, want their maximum", got)
	}
}

// spin uses d of CPU time.
func spin(d time.Duration) {
	for start := cpuNow(); cpuNow()-start < d; {
	}
}

func TestSpeedMeterScalesProgramTime(t *testing.T) {
	// A kernel that takes 1 ms against a nominal 2 ms: the core counts as
	// twice the reference speed, so 50 ms of program CPU reads as 100 ms,
	// whatever the meter itself uses meanwhile. One P, as in a run.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m := startSpeedMeter(refKernel{"test", func() { spin(time.Millisecond) }, 2 * time.Millisecond})
	start := m.cpu()
	spin(50 * time.Millisecond)
	got := m.cpu() - start
	speed, samples := m.stop()
	if samples < speedWindow {
		t.Fatalf("%d samples, want at least the %d taken at start", samples, speedWindow)
	}
	if speed < 1.6 || speed > 2.1 {
		t.Fatalf("speed %.3g, want about 2", speed)
	}
	if got < 75*time.Millisecond || got > 110*time.Millisecond {
		t.Fatalf("50 ms of program CPU read %v on the scaled clock, want about 100 ms", got)
	}
}
