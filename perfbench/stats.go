package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// high percentile for it to count as measured rather than extrapolated:
// p99 needs at least 1000 samples, p50 at least 20.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs: the
// smallest sample with at least ceil(q*n) samples at or below it. ok
// reports whether at least minBeyond samples lie strictly above that rank,
// so the value is bracketed by data rather than set by the tail's last
// few points. An empty xs returns (0, false).
func percentile(xs []float64, q float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s)-rank >= minBeyond
}

// geomean returns the geometric mean of xs, which must all be positive;
// it returns 0 for no samples or any non-positive sample.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies groups duration samples by a key (a circuit or a request
// class) in first-seen order.
type latencies struct {
	order []string
	by    map[string][]float64
}

func newLatencies() *latencies { return &latencies{by: map[string][]float64{}} }

func (l *latencies) add(key string, msv float64) {
	if _, ok := l.by[key]; !ok {
		l.order = append(l.order, key)
	}
	l.by[key] = append(l.by[key], msv)
}

// geomeanOfMedians is the geometric mean across keys of each key's median
// sample, so a fast circuit weighs as much as a slow one.
func (l *latencies) geomeanOfMedians() float64 {
	meds := make([]float64, 0, len(l.order))
	for _, k := range l.order {
		meds = append(meds, median(l.by[k]))
	}
	return geomean(meds)
}

// quarterPeak splits samples into four consecutive quarters and returns
// the median of their maxima (the maximum when there are fewer than four).
func quarterPeak(samples []float64) float64 {
	if len(samples) < 4 {
		return slices.Max(append(samples, 0))
	}
	peaks := make([]float64, 4)
	for q := range peaks {
		peaks[q] = slices.Max(samples[q*len(samples)/4 : (q+1)*len(samples)/4])
	}
	return median(peaks)
}
