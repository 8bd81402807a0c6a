package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"compact/internal/core"
	"compact/internal/logic"
	"compact/internal/spice"
)

// postMargin sends one /v1/margin request.
func postMargin(t *testing.T, url, body string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/margin", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp.StatusCode, resp.Header.Get("X-Compactd-Cache"), data
}

func marginCircuitRequest(margin string) string {
	return fmt.Sprintf(`{"circuit": %q, "options": {"method": "heuristic"}, "margin": %s}`, andOrBLIF, margin)
}

// TestMarginEndpointDeterministicYield: a fixed (circuit, options, margin)
// triple yields one deterministic report — byte-identical across repeats
// on one server (cache hit) and across servers (fresh solve).
func TestMarginEndpointDeterministicYield(t *testing.T) {
	req := marginCircuitRequest(`{"model": "highcontrast", "sigma": 0.1, "trials": 16, "vectors": 8, "seed": 7}`)

	ts := newTestServer(t, Config{})
	status, disp, first := postMargin(t, ts.URL, req)
	if status != http.StatusOK || disp != "miss" {
		t.Fatalf("first request: status %d, disposition %q, body %s", status, disp, first)
	}
	var mr marginResponse
	if err := json.Unmarshal(first, &mr); err != nil {
		t.Fatalf("unmarshaling response: %v", err)
	}
	if mr.Model != "highcontrast" || mr.SigmaOn != 0.1 || mr.SigmaOff != 0.1 {
		t.Errorf("echoed parameters wrong: %+v", mr)
	}
	if mr.Report.Trials != 16 || mr.Report.RequestedTrials != 16 {
		t.Errorf("trial accounting wrong: %+v", mr.Report)
	}
	// Three inputs: 8 requested vectors exactly cover the space.
	if mr.Report.Vectors != 8 || !mr.Report.Exhaustive {
		t.Errorf("vector accounting wrong: %+v", mr.Report)
	}
	if mr.Report.Yield < 0 || mr.Report.Yield > 1 {
		t.Errorf("yield %v outside [0,1]", mr.Report.Yield)
	}
	if mr.Report.Yield < 0.9 {
		t.Errorf("tight spread on the high-contrast model should give near-unit yield: %+v", mr.Report)
	}

	status, disp, second := postMargin(t, ts.URL, req)
	if status != http.StatusOK || disp != "hit" {
		t.Fatalf("repeat request: status %d, disposition %q", status, disp)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("cache hit body differs from the miss body")
	}

	ts2 := newTestServer(t, Config{})
	status, _, fresh := postMargin(t, ts2.URL, req)
	if status != http.StatusOK {
		t.Fatalf("fresh server: status %d, body %s", status, fresh)
	}
	if !bytes.Equal(first, fresh) {
		t.Fatalf("same request on a fresh server produced a different report:\n%s\n%s", first, fresh)
	}
}

// TestMarginSingleflightDedup: N concurrent identical margin requests run
// the synthesis (and hence the simulation behind it) exactly once.
func TestMarginSingleflightDedup(t *testing.T) {
	var solves atomic.Int64
	ts := newTestServer(t, Config{
		Synth: func(ctx context.Context, nw *logic.Network, opts core.Options) (*core.Result, error) {
			solves.Add(1)
			time.Sleep(200 * time.Millisecond) // hold the flight open for joiners
			return core.SynthesizeContext(ctx, nw, opts)
		},
	})
	const n = 8
	req := marginCircuitRequest(`{"sigma": 0.05, "trials": 8, "vectors": 8, "seed": 1}`)
	var (
		start  sync.WaitGroup
		done   sync.WaitGroup
		mu     sync.Mutex
		bodies [][]byte
		misses int
	)
	start.Add(1)
	for i := 0; i < n; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			status, disp, body := postMargin(t, ts.URL, req)
			mu.Lock()
			defer mu.Unlock()
			if status != http.StatusOK {
				t.Errorf("status %d, body %s", status, body)
			}
			if disp == "miss" {
				misses++
			}
			bodies = append(bodies, body)
		}()
	}
	start.Done()
	done.Wait()
	if got := solves.Load(); got != 1 {
		t.Fatalf("synthesis ran %d times for %d concurrent identical margin requests, want exactly 1", got, n)
	}
	if misses != 1 {
		t.Errorf("got %d miss dispositions, want exactly 1", misses)
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
}

// TestMarginEndpointErrors drives the request-validation envelope paths.
func TestMarginEndpointErrors(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := []struct {
		name       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"sigma over cap", marginCircuitRequest(`{"sigma": 5.0}`), http.StatusBadRequest, codeInvalidOptions},
		{"negative sigma", marginCircuitRequest(`{"sigma_on": -0.5}`), http.StatusBadRequest, codeInvalidOptions},
		{"unknown model", marginCircuitRequest(`{"model": "quantum"}`), http.StatusBadRequest, codeInvalidOptions},
		{"trials over cap", marginCircuitRequest(`{"trials": 100000}`), http.StatusBadRequest, codeInvalidOptions},
		{"vectors over cap", marginCircuitRequest(`{"vectors": 10000000}`), http.StatusBadRequest, codeInvalidOptions},
		{"unknown field", marginCircuitRequest(`{"sgma": 0.1}`), http.StatusBadRequest, codeInvalidRequest},
		{"no circuit", `{"margin": {"sigma": 0.1}}`, http.StatusBadRequest, codeInvalidRequest},
		{"unknown benchmark", `{"benchmark": "nope", "margin": {"sigma": 0.1}}`, http.StatusNotFound, codeUnknownBenchmark},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, body := postMargin(t, ts.URL, tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status %d, want %d; body %s", status, tc.wantStatus, body)
			}
			var env errorEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("non-envelope error body %s: %v", body, err)
			}
			if env.Error.Code != tc.wantCode {
				t.Errorf("code %q, want %q (body %s)", env.Error.Code, tc.wantCode, body)
			}
			if env.Error.Message == "" {
				t.Error("empty error message")
			}
		})
	}
}

// TestMarginUnsupportedOnPartitionedResult: a synthesis that returns a
// multi-tile plan has no single-array electrical model; the margin route
// must refuse with the typed 422, not guess.
func TestMarginUnsupportedOnPartitionedResult(t *testing.T) {
	ts := newTestServer(t, Config{
		Synth: func(ctx context.Context, nw *logic.Network, opts core.Options) (*core.Result, error) {
			opts.Partition = true
			opts.MaxRows = 4
			opts.MaxCols = 3
			return core.SynthesizeContext(ctx, nw, opts)
		},
	})
	req := marginCircuitRequest(`{"sigma": 0.1, "trials": 4, "vectors": 4}`)
	status, _, body := postMargin(t, ts.URL, req)
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("non-envelope body %s: %v", body, err)
	}
	if env.Error.Code == codeMarginUnsupported {
		if status != http.StatusUnprocessableEntity {
			t.Fatalf("margin_unsupported with status %d", status)
		}
		return
	}
	// The forced caps may let the circuit fit a single tile after all; then
	// the request must simply succeed (the hook changes opts, not the key,
	// so this stays deterministic per test binary).
	if status != http.StatusOK {
		t.Fatalf("status %d, code %q, body %s", status, env.Error.Code, body)
	}
}

// TestMarginLayeredEnvelope pins the /v1/margin contract for FLOW-3D
// requests: a layered stack, pristine or placed on its per-plane defect
// maps (with or without the margin-aware search), runs through the nodal
// solver and returns a normal report carrying the layer count; a layer
// count past the cap is a typed envelope — never a 500.
func TestMarginLayeredEnvelope(t *testing.T) {
	ts := newTestServer(t, Config{})
	layered := func(options, margin string) string {
		return fmt.Sprintf(`{"circuit": %q, "options": %s, "margin": %s}`, andOrBLIF, options, margin)
	}
	cases := []struct {
		name       string
		body       string
		wantStatus int
		wantCode   string // empty for a 200
		wantPlaced bool
	}{
		{
			"clean layered stack",
			layered(`{"method": "heuristic", "layers": 3}`, `{"sigma": 0.02, "trials": 8, "vectors": 8, "seed": 3}`),
			http.StatusOK, "", false,
		},
		{
			"defect-placed layered stack",
			layered(`{"method": "heuristic", "layers": 3, "defect_rate": 0.001, "defect_seed": 1}`, `{"sigma": 0.02, "trials": 8, "vectors": 4}`),
			http.StatusOK, "", true,
		},
		{
			"layered margin-aware placement",
			layered(`{"method": "heuristic", "layers": 3, "defect_rate": 0.001, "defect_seed": 1, "margin_aware": true}`, `{"sigma": 0.02, "trials": 8}`),
			http.StatusOK, "", true,
		},
		{
			"layers over cap",
			layered(`{"method": "heuristic", "layers": 99}`, `{"sigma": 0.02}`),
			http.StatusBadRequest, codeInvalidOptions, false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, body := postMargin(t, ts.URL, tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status %d, want %d; body %s", status, tc.wantStatus, body)
			}
			if status >= 500 {
				t.Fatalf("layered margin request produced a server error: %s", body)
			}
			if tc.wantCode == "" {
				var mr marginResponse
				if err := json.Unmarshal(body, &mr); err != nil {
					t.Fatalf("non-JSON 200 body %s: %v", body, err)
				}
				if mr.Layers != 3 || mr.Placed != tc.wantPlaced {
					t.Errorf("layered report carries layers=%d placed=%v, want 3 and %v", mr.Layers, mr.Placed, tc.wantPlaced)
				}
				if mr.Report.Trials != 8 {
					t.Errorf("trial accounting wrong: %+v", mr.Report)
				}
				if mr.Report.Yield < 0.9 {
					t.Errorf("tight spread should give near-unit yield: %+v", mr.Report)
				}
				return
			}
			var env errorEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("non-envelope error body %s: %v", body, err)
			}
			if env.Error.Code != tc.wantCode {
				t.Errorf("code %q, want %q (body %s)", env.Error.Code, tc.wantCode, body)
			}
			if env.Error.Message == "" {
				t.Error("empty error message")
			}
		})
	}
}

// TestMarginKeyDistinguishesParameters: different margin parameters must
// never share a cache slot.
func TestMarginKeyDistinguishesParameters(t *testing.T) {
	base := cacheKey(mustNetwork(t), core.Options{}.Canonical())
	k1 := marginKey(base, spice.Default(), spice.Variation{SigmaOn: 0.1, SigmaOff: 0.1}, spice.MonteCarloOptions{Trials: 8, Seed: 1})
	k2 := marginKey(base, spice.Default(), spice.Variation{SigmaOn: 0.2, SigmaOff: 0.1}, spice.MonteCarloOptions{Trials: 8, Seed: 1})
	k3 := marginKey(base, spice.Default(), spice.Variation{SigmaOn: 0.1, SigmaOff: 0.1}, spice.MonteCarloOptions{Trials: 8, Seed: 2})
	k4 := marginKey(base, spice.HighContrast(), spice.Variation{SigmaOn: 0.1, SigmaOff: 0.1}, spice.MonteCarloOptions{Trials: 8, Seed: 1})
	keys := map[string]bool{k1: true, k2: true, k3: true, k4: true}
	if len(keys) != 4 {
		t.Fatalf("margin keys collide: %v", keys)
	}
	if !strings.Contains(k1, "|margin|") {
		t.Errorf("margin key %q does not extend the synthesis key", k1)
	}
}

func mustNetwork(t *testing.T) *logic.Network {
	t.Helper()
	b := logic.NewBuilder("k")
	b.Output("f", b.Input("a"))
	return b.Build()
}

// TestMarginSolveMetrics pins that a margin request's synthesis moves the
// same solve metrics as /v1/synthesize: a defect-placed ctrl design moves
// placements_total and solve_ms_total, and an unplaceable layered one
// answers 422 and moves unplaceable_total.
func TestMarginSolveMetrics(t *testing.T) {
	ts := newTestServer(t, Config{})
	type vars struct {
		Compactd struct {
			Placements  int64   `json:"placements_total"`
			Unplaceable int64   `json:"unplaceable_total"`
			SolveMillis float64 `json:"solve_ms_total"`
		} `json:"compactd"`
	}
	status, _, body := postMargin(t, ts.URL,
		`{"benchmark": "ctrl", "options": {"method": "heuristic", "defect_rate": 0.001, "defect_seed": 1}, "margin": {"sigma": 0.02, "trials": 2, "vectors": 4}}`)
	if status != http.StatusOK {
		t.Fatalf("defect-placed margin request: status %d, body %s", status, body)
	}
	var doc vars
	getJSON(t, ts.URL+"/debug/vars", &doc)
	if doc.Compactd.Placements != 1 || doc.Compactd.SolveMillis <= 0 {
		t.Fatalf("margin solve metrics off: %+v", doc.Compactd)
	}

	status, _, body = postMargin(t, ts.URL,
		`{"benchmark": "ctrl", "options": {"method": "heuristic", "layers": 3, "defect_rate": 0.5, "defect_seed": 1}, "margin": {"sigma": 0.02}}`)
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || status != http.StatusUnprocessableEntity || env.Error.Code != codeUnplaceable {
		t.Fatalf("unplaceable margin request: status %d, body %s", status, body)
	}
	getJSON(t, ts.URL+"/debug/vars", &doc)
	if doc.Compactd.Unplaceable != 1 {
		t.Fatalf("unplaceable_total = %d, want 1", doc.Compactd.Unplaceable)
	}
}
