package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// The open-loop load generator. Requests have due times fixed in advance;
// a single scheduler releases each at its due time into a bounded queue,
// and a fixed pool of workers (one connection each) sends them. Latency is
// measured from the due time, so time spent queued behind a slow request
// counts, and the scheduler's own lateness is reported so a run whose
// generator fell behind can be recognized. When the queue is full the
// request is shed and counted, never silently delayed.

// request is one scheduled request.
type request struct {
	due   time.Duration // offset from the phase start
	class string        // latency class: hot or cold
	key   string        // distinct input (circuit and options)
	bench string        // bundled circuit the body names
	body  []byte
	async bool // submit as a job and poll it to completion
}

// outcome is what one request saw.
type outcome struct {
	req     *request
	late    time.Duration // scheduler release time minus due time
	latency time.Duration // completion time minus due time
	status  int
	cache   string // X-Compactd-Cache header of the final response
	body    []byte
	err     error
	shed    bool
}

// phaseResult collects a phase's outcomes and generator health.
type phaseResult struct {
	outcomes    []outcome
	sent, shed  int
	maxInflight int
	// depths samples the backlog (queued plus in flight) at each release,
	// in release order.
	depths []int
	wall   time.Duration
}

// sendFunc performs one request and fills status, cache, body and err.
type sendFunc func(ctx context.Context, r *request) outcome

// runPhase plays reqs (sorted by due time) open-loop with `workers`
// concurrent senders and a queue of queueCap waiting requests.
func runPhase(ctx context.Context, reqs []request, workers, queueCap int, send sendFunc) phaseResult {
	type item struct {
		r    *request
		late time.Duration
	}
	queue := make(chan item, queueCap)
	var (
		mu       sync.Mutex
		res      phaseResult
		inflight atomic.Int64
		wg       sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range queue {
				n := inflight.Add(1)
				o := send(ctx, it.r)
				inflight.Add(-1)
				o.req, o.late = it.r, it.late
				o.latency = time.Since(start) - it.r.due
				mu.Lock()
				if int(n) > res.maxInflight {
					res.maxInflight = int(n)
				}
				res.outcomes = append(res.outcomes, o)
				mu.Unlock()
			}
		}()
	}
	for i := range reqs {
		r := &reqs[i]
		if d := r.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(start) - r.due
		depth := len(queue) + int(inflight.Load())
		select {
		case queue <- item{r, late}:
			res.sent++
		default:
			res.shed++
			mu.Lock()
			res.outcomes = append(res.outcomes, outcome{req: r, late: late, shed: true})
			mu.Unlock()
		}
		res.depths = append(res.depths, depth)
	}
	close(queue)
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// lateP99 is the p99 of the scheduler's release lateness, in ms.
func (ph phaseResult) lateP99() float64 {
	lates := make([]float64, 0, len(ph.outcomes))
	for _, o := range ph.outcomes {
		lates = append(lates, ms(o.late))
	}
	p99, _ := percentile(lates, 0.99)
	return p99
}

// growingBacklog reports whether the backlog samples trend upward: the
// mean of the last quarter exceeds the mean of the first quarter by more
// than slack. A system keeping up shows a flat backlog around its service
// concurrency; one falling behind shows a backlog that grows with time.
func growingBacklog(depths []int, slack float64) bool {
	q := len(depths) / 4
	if q == 0 {
		return false
	}
	mean := func(xs []int) float64 {
		s := 0
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	return mean(depths[len(depths)-q:]) > mean(depths[:q])+slack
}

// uniformDue assigns due times at a fixed rate: request i is due at i/rate.
func uniformDue(reqs []request, rate float64, offset time.Duration) {
	for i := range reqs {
		reqs[i].due = offset + time.Duration(float64(i)/rate*float64(time.Second))
	}
}

// rung is one step of the SLO ladder.
type rung struct {
	rate    float64
	p99     float64 // ms; valid only when measured
	valid   bool    // at least minBeyond samples beyond p99
	backlog bool
	shed    int
	failed  int
}

// passes reports whether the rung met the SLO: a measured p99 within the
// limit, no growing backlog, nothing shed and nothing failed.
func (r rung) passes(p99LimitMS float64) bool {
	return r.valid && r.p99 <= p99LimitMS && !r.backlog && r.shed == 0 && r.failed == 0
}

// maxPassingRate is the highest rate of an ascending ladder below which
// every rung passed; the ladder stops counting at the first failure.
func maxPassingRate(rungs []rung, p99LimitMS float64) float64 {
	best := 0.0
	for _, r := range rungs {
		if !r.passes(p99LimitMS) {
			break
		}
		best = r.rate
	}
	return best
}
