package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"compact/internal/core"
	"compact/internal/logic"
)

// jobDoc mirrors the wire shapes of the jobs routes for decoding.
type jobDoc struct {
	ID        string `json:"id"`
	Status    string `json:"status"`
	StatusURL string `json:"status_url"`
	ResultURL string `json:"result_url"`
	Progress  struct {
		RepairAttempts int64 `json:"repair_attempts"`
		TilesDone      int64 `json:"tiles_done"`
	} `json:"progress"`
	Error *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// doJSON issues a request and decodes the body into a jobDoc.
func doJSON(t *testing.T, method, url, body string) (int, jobDoc, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var doc jobDoc
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("decoding %s: %v", raw, err)
		}
	}
	return resp.StatusCode, doc, raw
}

// pollJob polls a job's status until it reaches a terminal state.
func pollJob(t *testing.T, base, statusURL string, deadline time.Duration) jobDoc {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		status, doc, raw := doJSON(t, http.MethodGet, base+statusURL, "")
		if status != http.StatusOK {
			t.Fatalf("job status: %d %s", status, raw)
		}
		if doc.Status == "done" || doc.Status == "failed" {
			return doc
		}
		if time.Now().After(stop) {
			t.Fatalf("job still %q after %v", doc.Status, deadline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobLifecycle drives the full async happy path: submit, poll to
// done, fetch the result byte-identically to the synchronous route, and
// check DELETE on a terminal job is a no-op.
func TestJobLifecycle(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := circuitRequest(`{"method": "heuristic"}`)

	status, sub, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", req)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", status, raw)
	}
	if sub.ID == "" || sub.StatusURL != "/v1/jobs/"+sub.ID {
		t.Fatalf("submit response malformed: %s", raw)
	}

	doc := pollJob(t, ts.URL, sub.StatusURL, 30*time.Second)
	if doc.Status != "done" {
		t.Fatalf("job finished %q: %+v", doc.Status, doc)
	}
	if doc.ResultURL != sub.StatusURL+"/result" {
		t.Fatalf("done job result_url %q", doc.ResultURL)
	}

	resp, err := http.Get(ts.URL + doc.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	jobBody, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d, body %s", resp.StatusCode, jobBody)
	}
	if disp := resp.Header.Get("X-Compactd-Cache"); disp != "hit" {
		t.Fatalf("result disposition %q, want hit", disp)
	}

	// The synchronous route must serve the exact same bytes from cache.
	syncStatus, disp, syncBody := post(t, ts.URL, req)
	if syncStatus != http.StatusOK || disp != "hit" {
		t.Fatalf("sync after job: status %d disposition %q", syncStatus, disp)
	}
	if string(syncBody) != string(jobBody) {
		t.Fatal("job result differs from the synchronous body")
	}

	// DELETE on a terminal job reports the unchanged state.
	status, doc, raw = doJSON(t, http.MethodDelete, ts.URL+sub.StatusURL, "")
	if status != http.StatusOK || doc.Status != "done" {
		t.Fatalf("delete terminal job: status %d, body %s", status, raw)
	}
}

// TestJobCancellationPrompt checks DELETE cancels a running job's solve
// promptly via the derived context.
func TestJobCancellationPrompt(t *testing.T) {
	started := make(chan struct{})
	var once sync.Once
	ts := newTestServer(t, Config{
		Synth: func(ctx context.Context, nw *logic.Network, opts core.Options) (*core.Result, error) {
			once.Do(func() { close(started) })
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})

	status, sub, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", circuitRequest(""))
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", status, raw)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("solve never started")
	}
	t0 := time.Now()
	if status, _, raw := doJSON(t, http.MethodDelete, ts.URL+sub.StatusURL, ""); status != http.StatusOK {
		t.Fatalf("cancel: status %d, body %s", status, raw)
	}
	doc := pollJob(t, ts.URL, sub.StatusURL, 5*time.Second)
	if doc.Status != "failed" || doc.Error == nil || doc.Error.Code != "canceled" {
		t.Fatalf("canceled job state: %+v", doc)
	}
	if elapsed := time.Since(t0); elapsed > 3*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestJobInterruptedOnRestart checks a job that was mid-flight when the
// process died resurfaces on restart as failed with the "interrupted"
// code — it never vanishes.
func TestJobInterruptedOnRestart(t *testing.T) {
	dir := t.TempDir()
	started := make(chan struct{})
	var once sync.Once
	ctxA, cancelA := context.WithCancel(context.Background())
	t.Cleanup(cancelA)
	srvA, err := New(ctxA, Config{
		StoreDir: dir,
		Synth: func(ctx context.Context, nw *logic.Network, opts core.Options) (*core.Result, error) {
			once.Do(func() { close(started) })
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA.Handler())
	t.Cleanup(tsA.Close)

	status, sub, raw := doJSON(t, http.MethodPost, tsA.URL+"/v1/jobs", circuitRequest(""))
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", status, raw)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("solve never started")
	}
	// Wait for the "running" record to land on disk before "crashing".
	stop := time.Now().Add(5 * time.Second)
	for {
		if _, doc, _ := doJSON(t, http.MethodGet, tsA.URL+sub.StatusURL, ""); doc.Status == "running" {
			break
		}
		if time.Now().After(stop) {
			t.Fatal("job never reached running")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A new server over the same store directory simulates the restart;
	// the old process's goroutine is still blocked, like a crash would
	// leave the on-disk record.
	ctxB, cancelB := context.WithCancel(context.Background())
	t.Cleanup(cancelB)
	srvB, err := New(ctxB, Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(srvB.Handler())
	t.Cleanup(tsB.Close)

	status, doc, raw := doJSON(t, http.MethodGet, tsB.URL+sub.StatusURL, "")
	if status != http.StatusOK {
		t.Fatalf("recovered job status: %d %s", status, raw)
	}
	if doc.Status != "failed" || doc.Error == nil || doc.Error.Code != "interrupted" {
		t.Fatalf("recovered job state: %s", raw)
	}
}

// TestJobResultBeforeDone checks the 409 job_not_done envelope, and that
// the overloaded table refuses new jobs with 429 rather than evicting
// live work.
func TestJobBackpressure(t *testing.T) {
	release := make(chan struct{})
	ts := newTestServer(t, Config{
		MaxJobs: 1,
		Synth: func(ctx context.Context, nw *logic.Network, opts core.Options) (*core.Result, error) {
			select {
			case <-release:
				return core.SynthesizeContext(ctx, nw, opts)
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	defer close(release)

	status, sub, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", circuitRequest(""))
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", status, raw)
	}

	// Result before done: 409 with the typed envelope.
	resp, err := http.Get(ts.URL + sub.StatusURL + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("early result: status %d, body %s", resp.StatusCode, body)
	}
	if code := envelopeCode(t, body); code != "job_not_done" {
		t.Fatalf("early result code %q: %s", code, body)
	}

	// Table full of live jobs: refuse, don't evict running work.
	status, _, raw = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", circuitRequest(`{"gamma": 0.25}`))
	if status != http.StatusTooManyRequests {
		t.Fatalf("overloaded submit: status %d, body %s", status, raw)
	}
	if code := envelopeCode(t, raw); code != "overloaded" {
		t.Fatalf("overloaded code %q: %s", code, raw)
	}
}

// TestJobTerminalEviction checks a full table makes room by dropping the
// oldest finished job.
func TestJobTerminalEviction(t *testing.T) {
	ts := newTestServer(t, Config{MaxJobs: 1})

	status, sub1, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", circuitRequest(""))
	if status != http.StatusAccepted {
		t.Fatalf("submit 1: status %d, body %s", status, raw)
	}
	pollJob(t, ts.URL, sub1.StatusURL, 30*time.Second)

	status, sub2, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", circuitRequest(`{"gamma": 0.25}`))
	if status != http.StatusAccepted {
		t.Fatalf("submit 2 after terminal: status %d, body %s", status, raw)
	}
	pollJob(t, ts.URL, sub2.StatusURL, 30*time.Second)

	status, _, raw = doJSON(t, http.MethodGet, ts.URL+sub1.StatusURL, "")
	if status != http.StatusNotFound {
		t.Fatalf("evicted job lookup: status %d, body %s", status, raw)
	}
	if code := envelopeCode(t, raw); code != "job_not_found" {
		t.Fatalf("evicted job code %q: %s", code, raw)
	}
}

// TestJobResultEvicted checks the 410 result_evicted envelope when a done
// job's body has aged out of both cache tiers (here: a one-entry memory
// cache and no disk tier).
func TestJobResultEvicted(t *testing.T) {
	ts := newTestServer(t, Config{CacheEntries: 1})

	status, sub, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", circuitRequest(""))
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", status, raw)
	}
	doc := pollJob(t, ts.URL, sub.StatusURL, 30*time.Second)
	if doc.Status != "done" {
		t.Fatalf("job finished %q", doc.Status)
	}

	// Push the job's body out of the single cache slot.
	if status, _, body := post(t, ts.URL, circuitRequest(`{"gamma": 0.25}`)); status != http.StatusOK {
		t.Fatalf("evictor request: status %d, body %s", status, body)
	}

	resp, err := http.Get(ts.URL + doc.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("evicted result: status %d, body %s", resp.StatusCode, body)
	}
	if code := envelopeCode(t, body); code != "result_evicted" {
		t.Fatalf("evicted result code %q: %s", code, body)
	}
}

// TestCloseJoinsRunnersAndLeaders pins Server.Close: with a job and a
// synchronous request both blocked in a solve that only ends with its
// context, Close must cancel the server's lifetime and return only once
// every job runner and singleflight leader has returned.
func TestCloseJoinsRunnersAndLeaders(t *testing.T) {
	started := make(chan struct{}, 2)
	srv, err := New(context.Background(), Config{
		Synth: func(ctx context.Context, nw *logic.Network, opts core.Options) (*core.Result, error) {
			started <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)
	if status, _, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", circuitRequest("")); status != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", status, raw)
	}
	syncStatus := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json",
			strings.NewReader(circuitRequest(`{"method": "heuristic"}`)))
		if err != nil {
			syncStatus <- 0
			return
		}
		_ = resp.Body.Close()
		syncStatus <- resp.StatusCode
	}()
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatal("solves never started")
		}
	}

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	for _, fn := range []string{"(*Server).runJob", "(*flightGroup).do."} {
		if strings.Contains(stacks, fn) {
			t.Errorf("%s still running after Close:\n%s", fn, stacks)
		}
	}
	if status := <-syncStatus; status != http.StatusServiceUnavailable {
		t.Errorf("synchronous request ended with status %d, want 503", status)
	}
}
