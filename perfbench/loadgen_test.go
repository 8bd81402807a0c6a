package main

import (
	"context"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// TestLatencyFromDueTimeUnderStall stalls one request of an open-loop
// phase and checks that the requests queued behind it are charged the
// wait: their latency runs from their due time, not from when a worker
// got to them.
func TestLatencyFromDueTimeUnderStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	reqs := make([]request, 10)
	uniformDue(reqs, 100, 0) // one every 10ms
	for i := range reqs {
		reqs[i].key = string(rune('a' + i))
	}
	send := func(_ context.Context, r *request) outcome {
		if r.key == "a" {
			time.Sleep(stall)
		}
		return outcome{status: http.StatusOK}
	}
	ph := runPhase(context.Background(), reqs, 1, len(reqs), send)
	if ph.sent != len(reqs) || ph.shed != 0 || ph.maxInflight != 1 {
		t.Fatalf("sent %d shed %d max in flight %d, want %d/0/1", ph.sent, ph.shed, ph.maxInflight, len(reqs))
	}
	for _, o := range ph.outcomes {
		// Request i is due at i*10ms but cannot start before the stall
		// ends at 200ms.
		want := stall - o.req.due
		if o.latency < want {
			t.Errorf("request %s due %v: latency %v, want at least %v", o.req.key, o.req.due, o.latency, want)
		}
		// The scheduler itself released every request on time.
		if o.late > 50*time.Millisecond {
			t.Errorf("request %s released %v late", o.req.key, o.late)
		}
	}
}

func TestShedWhenQueueFull(t *testing.T) {
	reqs := make([]request, 6) // all due at once
	var sent atomic.Int64
	release := make(chan struct{})
	send := func(_ context.Context, _ *request) outcome {
		sent.Add(1)
		<-release
		return outcome{status: http.StatusOK}
	}
	go func() {
		time.Sleep(100 * time.Millisecond)
		close(release)
	}()
	ph := runPhase(context.Background(), reqs, 1, 2, send)
	// One request in flight and two queued; the other three are shed
	// (the worker may already have taken the first from the queue).
	if ph.sent+ph.shed != len(reqs) || ph.shed < 3 || ph.shed > 4 {
		t.Fatalf("sent %d shed %d, want 6 total with 3-4 shed", ph.sent, ph.shed)
	}
	if int(sent.Load()) != ph.sent {
		t.Fatalf("%d requests reached the sender, %d counted sent", sent.Load(), ph.sent)
	}
}

func TestGrowingBacklog(t *testing.T) {
	flat := []int{1, 2, 1, 2, 2, 1, 2, 1, 1, 2, 2, 1}
	if growingBacklog(flat, 4) {
		t.Error("a flat backlog was reported as growing")
	}
	rising := []int{0, 1, 1, 2, 3, 5, 8, 10, 12, 15, 18, 21}
	if !growingBacklog(rising, 4) {
		t.Error("a rising backlog was not detected")
	}
	if growingBacklog([]int{9, 9, 9}, 0) {
		t.Error("too few samples to judge were reported as growing")
	}
}

func TestMaxPassingRate(t *testing.T) {
	ladder := []rung{
		{rate: 100, p99: 5, valid: true},
		{rate: 200, p99: 8, valid: true},
		{rate: 400, p99: 9, valid: true, backlog: true},
		{rate: 800, p99: 4, valid: true},
	}
	if got := maxPassingRate(ladder, 10); got != 200 {
		t.Fatalf("max passing rate = %v, want 200 (the 400 rung's backlog grows)", got)
	}
	ladder[1].valid = false
	if got := maxPassingRate(ladder, 10); got != 100 {
		t.Fatalf("max passing rate = %v, want 100 (the 200 rung's p99 was not measured)", got)
	}
	ladder[0].p99 = 11
	if got := maxPassingRate(ladder, 10); got != 0 {
		t.Fatalf("max passing rate = %v, want 0 (the first rung misses the limit)", got)
	}
}

func TestSpansSelfTime(t *testing.T) {
	spans := []Span{
		{SpanID: 1, Name: "root", Start: 0, End: 100},
		{SpanID: 2, ParentID: 1, Name: "a", Start: 10, End: 40},
		{SpanID: 3, ParentID: 1, Name: "b", Start: 50, End: 90, Attrs: map[string]float64{"n": 2}},
		{SpanID: 4, ParentID: 3, Name: "a", Start: 60, End: 70},
	}
	agg := Aggregate(spans)
	for name, want := range map[string]time.Duration{"root": 30, "a": 40, "b": 30} {
		if got := agg[name].Self; got != want {
			t.Errorf("self time of %s = %v, want %v", name, got, want)
		}
	}
	if agg["a"].Calls != 2 || agg["b"].Attrs["n"] != 2 {
		t.Errorf("a calls %d, b attr n %v; want 2 and 2", agg["a"].Calls, agg["b"].Attrs["n"])
	}
}

func TestServiceScheduleIsSeededAndFixedInMix(t *testing.T) {
	count := func(reqs []request) map[string]int {
		m := map[string]int{}
		for _, r := range reqs {
			m[r.key]++
		}
		return m
	}
	a, _ := serviceSchedule(newRand(1), 20*time.Second)
	b, _ := serviceSchedule(newRand(1), 20*time.Second)
	c, _ := serviceSchedule(newRand(2), 20*time.Second)
	if len(a) != max(int(serviceRate*20), minNominal) {
		t.Fatalf("20s at %v req/s scheduled %d requests", serviceRate, len(a))
	}
	for i := range a {
		if a[i].key != b[i].key || a[i].due != b[i].due {
			t.Fatal("the same seed gave different schedules")
		}
	}
	ca, cc := count(a), count(c)
	if len(ca) != len(cc) {
		t.Fatalf("seeds 1 and 2 used %d and %d distinct keys", len(ca), len(cc))
	}
	for k, n := range ca {
		if cc[k] != n {
			t.Fatalf("key %s: %d requests under seed 1, %d under seed 2", k, n, cc[k])
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due {
			t.Fatal("schedule not sorted by due time")
		}
	}
	var hot, async int
	for _, r := range a {
		if r.class == "hot" {
			hot++
		}
		if r.async {
			async++
		}
	}
	if hot != len(a)*4/5 || async != len(a)/5 || len(ca) != hotKeys+coldKeys {
		t.Fatalf("%d hot and %d async of %d over %d keys, want shares 0.8 and 0.2 over %d keys",
			hot, async, len(a), len(ca), hotKeys+coldKeys)
	}
}
