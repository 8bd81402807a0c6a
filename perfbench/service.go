package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"compact/internal/bench"
	"compact/internal/core"
	"compact/internal/logic"
	"compact/internal/server"
	"compact/internal/xbar"
)

// service-mix settings. The traffic is compactload's committed
// configuration (results/BENCH_service.json): 100 req/s, four in five
// requests on 4 hot keys and the rest on 64 cold keys, each drawn
// again and again, and one request in five submitted as an async job.
const (
	serviceRate = 100.0 // nominal requests per second
	hotKeys     = 4
	coldKeys    = 64
	coldEvery   = 5 // every fifth request is cold: a hot share of 0.8
	asyncEvery  = 5 // every fifth request of each class is a job: 0.2 async
	// minNominal keeps at least minBeyond samples beyond the nominal p99
	// of the synchronous requests, four in five.
	minNominal = 1250
	// queueCap bounds the requests waiting for a worker; past it the
	// generator sheds rather than delays, so a stalled server shows as
	// shed requests instead of a schedule silently slipping.
	queueCap = 1024
	// p99LimitMS is the SLO the ladder checks each rung's p99 against.
	p99LimitMS     = 50.0
	ladderRequests = 1000 // per rung: exactly minBeyond samples beyond p99
	restarts       = 3
	pollInterval   = 2 * time.Millisecond
	settleTimeout  = 30 * time.Second
)

var (
	hotCircuits = []string{"ctrl", "cavlc", "int2float"}
	ladderRates = []float64{250, 500, 1000, 2000, 4000}
)

// workers is the generator's concurrency: one connection per worker, at
// most one worker per CPU.
func workers() int { return runtime.NumCPU() }

// booted is one running compactd instance on a loopback port.
type booted struct {
	hs     *http.Server
	url    string
	cancel context.CancelFunc
	served chan struct{}
}

// boot starts an in-process compactd with its disk store under dir (none
// when dir is empty) and a job table of maxJobs entries.
func boot(dir string, maxJobs int) (*booted, error) {
	ctx, cancel := context.WithCancel(context.Background())
	srv, err := server.New(ctx, server.Config{StoreDir: dir, MaxJobs: maxJobs})
	if err != nil {
		cancel()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, err
	}
	b := &booted{hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(),
		cancel: cancel, served: make(chan struct{})}
	go func() {
		defer close(b.served)
		_ = b.hs.Serve(ln)
	}()
	return b, nil
}

// close shuts the instance down and waits for its serve loop to return.
// Callers settle the instance's jobs first.
func (b *booted) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.hs.Shutdown(ctx)
	b.cancel()
	<-b.served
}

// serviceEnv is what service-mix set-up prepares.
type serviceEnv struct {
	dir string
	// store is the instance's store directory, empty in untraced runs.
	store   string
	maxJobs int
	inst    *booted
	client  *http.Client
	nominal []request
	replay  []request
	nets    map[string]*logic.Network
	// bodies interns response bodies by hash, so thousands of identical
	// hits hold one copy and the benchmark's own heap stays small.
	bodies sync.Map
	// checked holds the design of every body already verified.
	checked map[[32]byte]*xbar.Design
	mu      sync.Mutex
	jobIDs  []string // submitted since the last settleJobs
}

// serviceSetup boots compactd. Untraced runs boot it without a disk
// store: on the shared host the file system's kernel time for store puts
// and job records varied by about 20% of a pass between runs of the same
// code, even in CPU time, against about 3% without them. Traced runs
// boot it with a store, so the restarts can read the disk tier.
func serviceSetup(rng *rand.Rand, seconds time.Duration, traced bool) (any, func(), error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(outDir, "service-")
	if err != nil {
		return nil, nil, err
	}
	n := workers()
	env := &serviceEnv{
		dir: dir,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true,
		}},
		nets:    map[string]*logic.Network{},
		checked: map[[32]byte]*xbar.Design{},
	}
	env.nominal, env.replay = serviceSchedule(rng, seconds)
	// The job table holds every job of the run, so no record is evicted
	// before settleJobs has seen it terminal.
	for _, r := range env.nominal {
		if r.async {
			env.maxJobs++
		}
	}
	if traced {
		env.store = filepath.Join(dir, "store")
	}
	if env.inst, err = boot(env.store, env.maxJobs); err != nil {
		_ = os.RemoveAll(dir)
		return nil, nil, err
	}
	release := func() {
		_ = env.settleJobs()
		env.inst.close()
		env.client.CloseIdleConnections()
		_ = os.RemoveAll(dir) // scratch state under .bench_build; a leftover is harmless
	}
	for _, name := range hotCircuits {
		env.nets[name] = bench.MustBuild(name)
	}
	for _, path := range []string{"/healthz", "/v1/benchmarks"} {
		if _, err := env.get(context.Background(), path); err != nil {
			release()
			return nil, nil, fmt.Errorf("warm-up %s: %w", path, err)
		}
	}
	return env, release, nil
}

// serviceSchedule builds the nominal mix, serviceRate requests per
// second for the measured window in a seeded order, and the restart
// replay of the hot keys. The mix depends only on the window; the seed
// decides where each request sits.
func serviceSchedule(rng *rand.Rand, seconds time.Duration) (nominal, replay []request) {
	total := max(int(serviceRate*seconds.Seconds()), minNominal)
	nominal = serviceMix(rng, total)
	uniformDue(nominal, serviceRate, 0)
	for k := 0; k < hotKeys; k++ {
		replay = append(replay, serviceRequest(true, k))
	}
	return nominal, replay
}

// serviceMix returns total requests in the service proportions, shuffled
// by rng: the i-th hot request uses hot key i mod hotKeys, the i-th cold
// one cold key i mod coldKeys, and every asyncEvery-th request of each
// class is a job.
func serviceMix(rng *rand.Rand, total int) []request {
	reqs := make([]request, total)
	var nHot, nCold int
	for i := range reqs {
		if i%coldEvery == coldEvery-1 {
			reqs[i] = serviceRequest(false, nCold%coldKeys)
			nCold++
			reqs[i].async = nCold%asyncEvery == 0
		} else {
			reqs[i] = serviceRequest(true, nHot%hotKeys)
			nHot++
			reqs[i].async = nHot%asyncEvery == 0
		}
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// serviceRequest is a heuristic synthesis of one of the EPFL trio. As in
// compactload, keys differ in γ, so each is a content address of its own:
// hot keys lie just above 0.5, cold keys just above 0.25.
func serviceRequest(hot bool, key int) request {
	class, base := "hot", 0.5
	if !hot {
		class, base = "cold", 0.25
	}
	name := hotCircuits[key%len(hotCircuits)]
	gamma := base + float64(key)/(1<<20)
	return request{class: class, key: fmt.Sprintf("%s/%g", name, gamma), bench: name,
		body: []byte(fmt.Sprintf(`{"benchmark":%q,"options":{"method":"heuristic","gamma":%g}}`, name, gamma))}
}

// settleJobs waits until the record of every job submitted since the
// last call reads a terminal status under <store>/jobs/. The server
// writes a job's final record just after the job turns done, and the
// instance must not be shut down under that write. Without a store there
// are no records: every job was polled to done before the next request.
func (e *serviceEnv) settleJobs() error {
	e.mu.Lock()
	ids := e.jobIDs
	e.jobIDs = nil
	e.mu.Unlock()
	if e.store == "" {
		return nil
	}
	deadline := time.Now().Add(settleTimeout)
	for _, id := range ids {
		path := filepath.Join(e.store, "jobs", id+".json")
		for {
			var rec struct {
				Status string `json:"status"`
			}
			if b, err := os.ReadFile(path); err == nil && json.Unmarshal(b, &rec) == nil &&
				(rec.Status == "done" || rec.Status == "failed") {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("job %s: no terminal record after %v", id, settleTimeout)
			}
			time.Sleep(pollInterval)
		}
	}
	return nil
}

// get fetches path and requires a 200.
func (e *serviceEnv) get(ctx context.Context, path string) ([]byte, error) {
	status, _, body, err := e.do(ctx, http.MethodGet, path, nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, status)
	}
	return body, err
}

// do performs one HTTP exchange and returns status, cache header and body.
func (e *serviceEnv) do(ctx context.Context, method, path string, body []byte) (int, string, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, e.inst.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Compactd-Cache"), b, err
}

// send is the generator's sendFunc: one exchange under a span.
func (e *serviceEnv) send(tr *Tracer) sendFunc {
	return func(ctx context.Context, r *request) outcome {
		route := "server.synthesize"
		if r.async {
			route = "server.job"
		}
		sp := tr.Root(route)
		o := e.exchange(ctx, r)
		sp.Set("status", float64(o.status))
		sp.End()
		o.body = e.intern(o.body)
		return o
	}
}

// intern returns the kept copy of body, so thousands of identical hits
// hold one copy.
func (e *serviceEnv) intern(body []byte) []byte {
	if v, loaded := e.bodies.LoadOrStore(sha256.Sum256(body), body); loaded {
		return v.([]byte)
	}
	return body
}

// exchange performs one request: a sync synthesis, or a job submitted
// and polled until its result can be fetched.
func (e *serviceEnv) exchange(ctx context.Context, r *request) outcome {
	var o outcome
	if !r.async {
		o.status, o.cache, o.body, o.err = e.do(ctx, http.MethodPost, "/v1/synthesize", r.body)
		return o
	}
	status, _, b, err := e.do(ctx, http.MethodPost, "/v1/jobs", r.body)
	if err != nil || status != http.StatusAccepted {
		o.status, o.err = status, err
		return o
	}
	var sub struct {
		ID        string `json:"id"`
		StatusURL string `json:"status_url"`
	}
	if err := json.Unmarshal(b, &sub); err != nil {
		o.err = err
		return o
	}
	e.mu.Lock()
	e.jobIDs = append(e.jobIDs, sub.ID)
	e.mu.Unlock()
	for {
		status, _, b, err := e.do(ctx, http.MethodGet, sub.StatusURL, nil)
		if err != nil || status != http.StatusOK {
			o.status, o.err = status, err
			return o
		}
		var st struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(b, &st); err != nil {
			o.err = err
			return o
		}
		if st.Status == "done" {
			break
		}
		if st.Status == "failed" {
			o.status, o.err = status, fmt.Errorf("job %s failed: %s", sub.ID, b)
			return o
		}
		time.Sleep(pollInterval)
	}
	o.status, o.cache, o.body, o.err = e.do(ctx, http.MethodGet, sub.StatusURL+"/result", nil)
	return o
}

// vars reads the server's counters from /debug/vars.
func (e *serviceEnv) vars(ctx context.Context) (map[string]float64, error) {
	b, err := e.get(ctx, "/debug/vars")
	if err != nil {
		return nil, err
	}
	var doc struct {
		Compactd map[string]json.RawMessage `json:"compactd"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for k, raw := range doc.Compactd {
		var v float64
		if json.Unmarshal(raw, &v) == nil {
			out[k] = v
		}
	}
	return out, nil
}

// checkBody decodes a 200 body and verifies its design against the
// circuit the request named; each distinct body is checked once.
func (e *serviceEnv) checkBody(r *request, body []byte) (*xbar.Design, error) {
	hash := sha256.New()
	hash.Write([]byte(r.bench + "\x00"))
	hash.Write(body)
	var h [32]byte
	hash.Sum(h[:0])
	if d, ok := e.checked[h]; ok {
		return d, nil
	}
	var resp struct {
		Result core.ResultView `json:"result"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding body: %w", err)
	}
	if resp.Result.Design == nil {
		return nil, errors.New("body carries no design")
	}
	if err := verify2D(resp.Result.Design, e.nets[r.bench]); err != nil {
		return nil, err
	}
	e.checked[h] = resp.Result.Design
	return resp.Result.Design, nil
}

// verified is an outcome whose body decoded to a design that verified.
type verified struct {
	outcome
	design *xbar.Design
}

// account checks every outcome of a phase, counting each as attempted and
// each wrong one as failed, reports the phase's counts on stderr, and
// returns the outcomes that delivered a verified design.
func (e *serviceEnv) account(phase string, ph phaseResult, t *tally) []verified {
	var good []verified
	defer func() {
		fmt.Fprintf(os.Stderr, "perfbench: phase %s: sent %d, succeeded %d, failed %d, shed %d, %.4g s, release late p99 %.3g ms\n",
			phase, ph.sent, len(good), len(ph.outcomes)-len(good)-ph.shed, ph.shed, ph.wall.Seconds(), ph.lateP99())
	}()
	for _, o := range ph.outcomes {
		t.attempted++
		var err error
		switch {
		case o.shed:
			err = errors.New("shed by the generator")
		case o.err != nil:
			err = o.err
		case o.status != http.StatusOK:
			err = fmt.Errorf("status %d: %s", o.status, o.body)
		}
		var d *xbar.Design
		if err == nil {
			d, err = e.checkBody(o.req, o.body)
		}
		if err != nil {
			t.fail("%s %s: %v", o.req.class, o.req.key, err)
			continue
		}
		good = append(good, verified{o, d})
	}
	return good
}

// settle waits for the jobs submitted so far, counting a timeout as a
// failure.
func (e *serviceEnv) settle(t *tally) {
	if err := e.settleJobs(); err != nil {
		t.attempted++
		t.fail("%v", err)
	}
}

func serviceRun(ctx context.Context, envAny any, seconds time.Duration, tr *Tracer, t *tally, l layers) {
	e := envAny.(*serviceEnv)
	defer e.settle(t)
	if tr == nil {
		e.passes(ctx, seconds, t)
		return
	}
	before, err := e.vars(ctx)
	if err != nil {
		t.fail("reading /debug/vars: %v", err)
		return
	}
	ph := runPhase(ctx, e.nominal, workers(), queueCap, e.send(tr))
	after, err := e.vars(ctx)
	if err != nil {
		t.fail("reading /debug/vars: %v", err)
		return
	}
	good := e.account("nominal", ph, t)
	for _, o := range good {
		if !o.req.async {
			t.ops = append(t.ops, ms(o.latency))
		}
	}

	// Per-layer figures: the nominal phase split by cache disposition,
	// the server's own counters, a restart phase for the disk tier and
	// the SLO ladder.
	split := newLatencies()
	for _, o := range good {
		class := o.cache
		if o.req.async {
			class = "job"
		}
		split.add(class, ms(o.latency))
	}
	l["server.hit_p50_ms"] = median(split.by["hit"])
	l["server.miss_p50_ms"] = median(split.by["miss"])
	l["server.job_done_p50_ms"] = median(split.by["job"])
	if reqd := after["requests_total"] - before["requests_total"]; reqd > 0 {
		l["server.hit_ratio"] = (after["cache_hits_total"] - before["cache_hits_total"]) / reqd
		l["server.shared_ratio"] = (after["cache_shared_total"] - before["cache_shared_total"]) / reqd
	}
	l["server.solves"] = after["solves_total"] - before["solves_total"]
	// Async jobs are left out: a job's completion time includes the
	// generator's polling interval, a choice of the benchmark rather than
	// the server; it is reported as server.job_done_p50_ms instead.
	l["loadgen.req_p50_ms"] = median(t.ops)
	l["loadgen.req_p90_ms"], _ = percentile(t.ops, 0.90)
	l["loadgen.req_p99_ms"], _ = percentile(t.ops, 0.99)
	l["loadgen.late_p99_ms"] = ph.lateP99()
	l["loadgen.sent"] = float64(ph.sent)
	l["loadgen.shed"] = float64(ph.shed)
	maxInflight := ph.maxInflight

	var disk []float64
	replayed := 0
	for i := 0; i < restarts; i++ {
		if !e.restart(t) {
			return
		}
		rp := append([]request(nil), e.replay...)
		uniformDue(rp, 20, 0)
		rph := runPhase(ctx, rp, workers(), queueCap, e.send(tr))
		for _, o := range e.account(fmt.Sprintf("restart-%d", i+1), rph, t) {
			replayed++
			if o.cache == "disk" {
				disk = append(disk, ms(o.latency))
			}
		}
		maxInflight = max(maxInflight, rph.maxInflight)
	}
	l["store.disk_hit_p50_ms"] = median(disk)
	if replayed > 0 {
		l["store.disk_hit_ratio"] = float64(len(disk)) / float64(replayed)
	}

	var rungs []rung
	for _, rate := range ladderRates {
		rp := make([]request, ladderRequests)
		for i := range rp {
			rp[i] = e.replay[i%len(e.replay)]
		}
		uniformDue(rp, rate, 0)
		rph := runPhase(ctx, rp, workers(), queueCap, e.send(nil))
		ok := e.account(fmt.Sprintf("ladder-%.0f", rate), rph, t)
		var lat []float64
		for _, o := range ok {
			lat = append(lat, ms(o.latency))
		}
		r := rung{rate: rate, shed: rph.shed, failed: len(rph.outcomes) - len(ok) - rph.shed,
			backlog: growingBacklog(rph.depths, float64(2*workers()))}
		r.p99, r.valid = percentile(lat, 0.99)
		rungs = append(rungs, r)
		maxInflight = max(maxInflight, rph.maxInflight)
		fmt.Fprintf(os.Stderr, "perfbench: ladder %.0f req/s: p99 %.2f ms (measured %v), backlog growing %v, shed %d\n",
			rate, r.p99, r.valid, r.backlog, r.shed)
		if !r.passes(p99LimitMS) {
			break
		}
	}
	l["loadgen.max_rps_slo"] = maxPassingRate(rungs, p99LimitMS)
	l["loadgen.max_inflight"] = float64(maxInflight)
}

// passes measures service-mix end to end. Pass after pass, one client
// sends the nominal mix to the instance one request at a time, timing
// each exchange in process CPU time: with one P and one request in
// flight, that is the client's and the server's work for it, whatever
// else the host runs. A pass's time is the sum over its requests; the
// checks and the restart between passes are not timed. The instance has
// no disk store (see serviceSetup), and each pass ends by restarting it,
// so every pass does the same work: the same misses and hits.
func (e *serviceEnv) passes(ctx context.Context, seconds time.Duration, t *tally) {
	n := 0
	t.timedPasses(seconds, func() time.Duration {
		n++
		ph := phaseResult{outcomes: make([]outcome, 0, len(e.nominal)), sent: len(e.nominal)}
		var busy time.Duration
		start := time.Now()
		for i := range e.nominal {
			r := &e.nominal[i]
			opStart := t.now()
			o := e.exchange(ctx, r)
			o.latency = t.now() - opStart
			busy += o.latency
			o.req, o.body = r, e.intern(o.body)
			ph.outcomes = append(ph.outcomes, o)
		}
		ph.wall = time.Since(start)
		good := e.account(fmt.Sprintf("pass-%d", n), ph, t)
		t.placeTried += len(ph.outcomes)
		t.placed += len(good)
		t.delivered += len(good)
		for _, o := range good {
			st := o.design.Stats()
			t.design(o.req.key, st.S, st.D)
			if o.req.async {
				// Left out of req_*, as in the traced open loop.
				continue
			}
			t.ops = append(t.ops, ms(o.latency))
			t.calls.add(o.req.class, ms(o.latency))
		}
		e.restart(t)
		e.forget()
		return busy
	})
}

// forget drops the kept bodies and checked designs. A fresh instance
// solves its misses again, and a result body carries the solve's own
// timings, so no body of one pass recurs in the next; kept, they would
// grow the heap pass after pass.
func (e *serviceEnv) forget() {
	e.bodies.Range(func(k, _ any) bool {
		e.bodies.Delete(k)
		return true
	})
	e.checked = map[[32]byte]*xbar.Design{}
}

// restart shuts the instance down once its jobs have settled and boots a
// new one: on the same store, if it has one, so its disk tier is warm.
// It reports whether the new instance is up.
func (e *serviceEnv) restart(t *tally) bool {
	e.settle(t)
	e.inst.close()
	e.client.CloseIdleConnections()
	inst, err := boot(e.store, e.maxJobs)
	if err != nil {
		t.fail("restart: %v", err)
		return false
	}
	e.inst = inst
	return true
}
