package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"compact/internal/core"
	"compact/internal/faultinject"
	"compact/internal/logic"
)

// TestSynthesizeWithDefectsEndToEnd drives a defect-aware request through
// the full HTTP path: the response must carry the placement view, the
// repair metrics must move, and the defect configuration must be part of
// the cache key (same circuit, different rate -> miss, not hit).
func TestSynthesizeWithDefectsEndToEnd(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := circuitRequest(`{"method": "heuristic", "defect_rate": 0.02, "defect_seed": 42}`)
	status, disp, body := post(t, ts.URL, req)
	if status != http.StatusOK || disp != "miss" {
		t.Fatalf("status %d, disposition %q, body %s", status, disp, body)
	}
	var resp struct {
		Result core.ResultView `json:"result"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	p := resp.Result.Placement
	if p == nil {
		t.Fatalf("defect-aware response lacks a placement view: %s", body)
	}
	if p.RepairAttempts < 1 || len(p.RowPerm) == 0 || len(p.ColPerm) == 0 {
		t.Fatalf("placement view malformed: %+v", p)
	}

	// Identical request: byte-identical cache hit.
	if status, disp, second := post(t, ts.URL, req); status != http.StatusOK || disp != "hit" || !bytes.Equal(body, second) {
		t.Fatalf("repeat: status %d, disposition %q, identical=%t", status, disp, bytes.Equal(body, second))
	}
	// Different defect seed: different generated map, different cache key,
	// so this must reach the solver again — whatever its verdict on the
	// denser map, it must not be served from the first request's cache slot.
	other := circuitRequest(`{"method": "heuristic", "defect_rate": 0.05, "defect_seed": 42}`)
	if status, disp, b := post(t, ts.URL, other); disp == "hit" {
		t.Fatalf("different rate served from cache: status %d, body %s — defects must be in the cache key", status, b)
	}

	var doc struct {
		Compactd struct {
			Placements     int64 `json:"placements_total"`
			RepairAttempts int64 `json:"repair_attempts_total"`
		} `json:"compactd"`
	}
	getJSON(t, ts.URL+"/debug/vars", &doc)
	if doc.Compactd.Placements < 1 || doc.Compactd.RepairAttempts < doc.Compactd.Placements {
		t.Fatalf("placement metrics off: %+v", doc.Compactd)
	}
}

// TestUnplaceableReturns422 posts an explicit defect map too small for the
// synthesized design: placement is impossible as a property of the request,
// so the server must answer 422 with the typed verdict's message (and count
// it), not a 500.
func TestUnplaceableReturns422(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := circuitRequest(`{"method": "heuristic", "defects": {"v": 1, "rows": 1, "cols": 1, "cells": []}}`)
	status, _, body := post(t, ts.URL, req)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (body %s)", status, body)
	}
	if !bytes.Contains(body, []byte("unplaceable")) {
		t.Fatalf("422 body does not name the unplaceable verdict: %s", body)
	}
	var doc struct {
		Compactd struct {
			Unplaceable int64 `json:"unplaceable_total"`
			SolveErrors int64 `json:"solve_errors_total"`
		} `json:"compactd"`
	}
	getJSON(t, ts.URL+"/debug/vars", &doc)
	if doc.Compactd.Unplaceable != 1 || doc.Compactd.SolveErrors != 1 {
		t.Fatalf("unplaceable metrics off: %+v", doc.Compactd)
	}
}

// TestLayeredPlacementVerdicts drives K=3 defect-aware requests: one the
// stack admits no placement for must answer 422 with the typed verdict's
// detail, like a 2D request (layered placement shares 2D's engine and its
// *xbar.Unplaceable), and a placeable one must move the placement metrics.
func TestLayeredPlacementVerdicts(t *testing.T) {
	ts := newTestServer(t, Config{})
	status, _, body := post(t, ts.URL, circuitRequest(`{"method": "heuristic", "layers": 3, "defect_rate": 0.5, "defect_seed": 1}`))
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (body %s)", status, body)
	}
	var env struct {
		Error struct {
			Code   string            `json:"code"`
			Detail unplaceableDetail `json:"detail"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("decoding 422 body: %v", err)
	}
	if env.Error.Code != codeUnplaceable || env.Error.Detail.Stage == "" {
		t.Fatalf("422 body lacks the unplaceable verdict and its detail: %s", body)
	}

	status, _, body = post(t, ts.URL, circuitRequest(`{"method": "heuristic", "layers": 3, "defect_rate": 0.01, "defect_seed": 1}`))
	if status != http.StatusOK {
		t.Fatalf("placeable layered request: status %d (body %s)", status, body)
	}
	var doc struct {
		Compactd struct {
			Placements     int64 `json:"placements_total"`
			RepairAttempts int64 `json:"repair_attempts_total"`
		} `json:"compactd"`
	}
	getJSON(t, ts.URL+"/debug/vars", &doc)
	if doc.Compactd.Placements != 1 || doc.Compactd.RepairAttempts < 1 {
		t.Fatalf("layered placement metrics off: %+v", doc.Compactd)
	}
}

// TestOversizedDefectMapRejected posts the few-byte sparse body that
// declares a multi-terabyte defect map. The decode must reject it as a
// client error before any placement machinery allocates per-line state —
// previously this OOM-killed the whole process — and the server must stay
// healthy for subsequent requests.
func TestOversizedDefectMapRejected(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := circuitRequest(`{"method": "heuristic", "defects": {"v": 1, "rows": 1099511627776, "cols": 1099511627776, "cells": [{"r": 0, "c": 0, "k": "off"}]}}`)
	status, _, body := post(t, ts.URL, req)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (body %s)", status, body)
	}
	if !bytes.Contains(body, []byte("cap")) {
		t.Fatalf("400 body does not name the dimension cap: %s", body)
	}
	if status, _, body := post(t, ts.URL, circuitRequest(`{"method": "heuristic"}`)); status != http.StatusOK {
		t.Fatalf("server unhealthy after oversized-map request: status %d, body %s", status, body)
	}
}

// TestServerFaultInjection drives the compactd admission probe: the
// documented degraded responses are a 503 for "unavailable" and a 500 for
// the generic failure mode — never a crash, and recovery is immediate once
// the variable clears.
func TestServerFaultInjection(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := circuitRequest(`{"method": "heuristic"}`)

	t.Setenv(faultinject.EnvVar, "server=unavailable")
	if status, _, body := post(t, ts.URL, req); status != http.StatusServiceUnavailable {
		t.Fatalf("unavailable: status %d, body %s", status, body)
	}
	t.Setenv(faultinject.EnvVar, "server")
	if status, _, body := post(t, ts.URL, req); status != http.StatusInternalServerError {
		t.Fatalf("fail: status %d, body %s", status, body)
	}
	t.Setenv(faultinject.EnvVar, "")
	if status, _, body := post(t, ts.URL, req); status != http.StatusOK {
		t.Fatalf("recovery: status %d, body %s", status, body)
	}
}

// TestLeaderDisconnectStillFillsCache is the singleflight failure-path
// test: the leader whose HTTP client disconnects mid-solve must not cancel
// the detached solve — it completes, fills the cache, and the next
// identical request is a hit without a second pipeline run.
func TestLeaderDisconnectStillFillsCache(t *testing.T) {
	var solves atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	ts := newTestServer(t, Config{
		Synth: func(ctx context.Context, nw *logic.Network, opts core.Options) (*core.Result, error) {
			if solves.Add(1) == 1 {
				close(started)
			}
			<-release
			return core.SynthesizeContext(ctx, nw, opts)
		},
	})

	req := circuitRequest(`{"method": "heuristic"}`)
	ctx, cancel := context.WithCancel(context.Background())
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/synthesize", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(httpReq)
		if resp != nil {
			_ = resp.Body.Close()
		}
		errc <- err
	}()

	<-started // the solve is running; now the leader walks away
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled leader request unexpectedly succeeded")
	}
	close(release) // let the detached solve finish

	// Wait for the abandoned solve to fill the cache (visible through the
	// cache_entries gauge), then the next identical request must be a hit
	// with the pipeline having run exactly once.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var doc struct {
			Compactd struct {
				Entries int64 `json:"cache_entries"`
			} `json:"compactd"`
		}
		getJSON(t, ts.URL+"/debug/vars", &doc)
		if doc.Compactd.Entries == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("detached solve never filled the cache after leader disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if status, disp, body := post(t, ts.URL, req); status != http.StatusOK || disp != "hit" {
		t.Fatalf("post-disconnect request: status %d, disposition %q, body %s", status, disp, body)
	}
	if got := solves.Load(); got != 1 {
		t.Fatalf("pipeline ran %d times, want exactly 1", got)
	}
}

// TestCacheChurnConcurrentAtByteBound hammers the result cache from many
// goroutines at a tight byte bound (run under -race): every interleaving
// must keep the accounting invariants — tracked bytes within the bound and
// matching the sum of live entries.
func TestCacheChurnConcurrentAtByteBound(t *testing.T) {
	const bound = 256
	c := newResultCache(0, bound)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g*31+i)%24)
				switch i % 3 {
				case 0:
					c.put(key, bytes.Repeat([]byte{byte(g)}, 16+i%48))
				case 1:
					if body, ok := c.get(key); ok && len(body) == 0 {
						t.Errorf("empty body for live key %s", key)
					}
				default:
					if entries, total := c.stats(); total > bound || entries < 0 {
						t.Errorf("stats out of bounds mid-churn: %d entries, %d bytes", entries, total)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	entries, total := c.stats()
	if total > bound {
		t.Fatalf("tracked bytes %d exceed the %d bound after churn", total, bound)
	}
	var live int64
	for k := 0; k < 24; k++ {
		if body, ok := c.get(fmt.Sprintf("k%d", k)); ok {
			live += int64(len(body))
		}
	}
	if live != total || entries < 0 {
		t.Fatalf("accounting drift: %d live body bytes vs %d tracked (%d entries)", live, total, entries)
	}
}

// getJSON fetches url and decodes the body into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
}
