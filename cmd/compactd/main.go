// Command compactd serves the COMPACT synthesis pipeline over HTTP: POST
// a circuit (BLIF, PLA or structural Verilog) to /v1/synthesize and get
// back the crossbar design as JSON. Repeated requests for the same
// circuit and options are served byte-identically from a
// content-addressed cache; concurrent identical requests share one solve.
//
// Usage:
//
//	compactd [-addr :8650] [-workers N] [-default-time-limit 30s] ...
//	compactd -selfcheck   # boot on a loopback port, run a smoke request, exit
//
// See GET /v1/benchmarks for the built-in circuit generators, /healthz
// for liveness, /debug/vars for metrics and /debug/pprof for profiles.
// SIGINT/SIGTERM trigger a graceful drain.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"compact/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("compactd", flag.ContinueOnError)
	addr := fs.String("addr", ":8650", "listen address")
	workers := fs.Int("workers", 0, "max concurrent solves (0 = GOMAXPROCS)")
	cacheEntries := fs.Int("cache-entries", 0, "result cache entry bound (0 = 512)")
	cacheBytes := fs.Int64("cache-bytes", 0, "result cache byte bound (0 = 256 MiB)")
	storeDir := fs.String("store-dir", "", "persistent result store directory (empty = memory-only)")
	storeMaxBytes := fs.Int64("store-max-bytes", 0, "persistent store byte bound (0 = 1 GiB)")
	maxJobs := fs.Int("max-jobs", 0, "async job table bound, live + finished (0 = 256)")
	defaultLimit := fs.Duration("default-time-limit", 0, "solve budget for requests that set none (0 = 30s)")
	maxLimit := fs.Duration("max-time-limit", 0, "largest solve budget a request may ask for (0 = 5m)")
	selfcheck := fs.Bool("selfcheck", false, "boot on a loopback port, run a smoke request, exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv, err := server.New(ctx, server.Config{
		Workers:          *workers,
		CacheEntries:     *cacheEntries,
		CacheBytes:       *cacheBytes,
		StoreDir:         *storeDir,
		StoreMaxBytes:    *storeMaxBytes,
		MaxJobs:          *maxJobs,
		DefaultTimeLimit: *defaultLimit,
		MaxTimeLimit:     *maxLimit,
	})
	if err != nil {
		log.Printf("compactd: %v", err)
		return 1
	}
	// Deferred right after New, Close runs last on every path: after the
	// selfcheck, and after Shutdown has drained the HTTP handlers, so it
	// only has job runners and singleflight leaders left to join.
	defer srv.Close()

	if *selfcheck {
		if err := runSelfcheck(ctx, srv); err != nil {
			log.Printf("compactd: selfcheck FAILED: %v", err)
			return 1
		}
		log.Printf("compactd: selfcheck ok")
		return 0
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("compactd: listening on %s", *addr)

	select {
	case err := <-errc:
		log.Printf("compactd: serve: %v", err)
		return 1
	case <-ctx.Done():
	}
	log.Printf("compactd: draining (interrupt again to force exit)")
	stop() // restore default signal handling so a second ^C kills us
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("compactd: shutdown: %v", err)
		return 1
	}
	return 0
}

// selfcheckBLIF is the smoke circuit: f = (a AND b) OR c.
const selfcheckBLIF = `.model selfcheck
.inputs a b c
.outputs f
.names a b w
11 1
.names w c f
1- 1
-1 1
.end
`

// runSelfcheck boots the full HTTP stack on an ephemeral loopback port and
// exercises the health, benchmark and synthesis endpoints, including the
// miss-then-hit cache contract. Used by CI as a post-build smoke test.
func runSelfcheck(ctx context.Context, srv *server.Server) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = httpSrv.Serve(ln)
	}()
	defer func() {
		_ = httpSrv.Close()
		<-served // don't leak the serve goroutine past the selfcheck
	}()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 30 * time.Second}

	status, _, body, err := do(ctx, client, http.MethodGet, base+"/healthz", "")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("healthz: status %d, err %v", status, err)
	}
	if !bytes.Contains(body, []byte(`"ok"`)) {
		return fmt.Errorf("healthz: unexpected body %s", body)
	}

	status, _, body, err = do(ctx, client, http.MethodGet, base+"/v1/benchmarks", "")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("benchmarks: status %d, err %v", status, err)
	}
	if !bytes.Contains(body, []byte(`"ctrl"`)) {
		return fmt.Errorf("benchmarks: registry missing expected entries: %s", body)
	}

	req := fmt.Sprintf(`{"circuit": %q, "options": {"method": "heuristic", "time_limit_ms": 10000}}`, selfcheckBLIF)
	status, disp, first, err := do(ctx, client, http.MethodPost, base+"/v1/synthesize", req)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("synthesize: status %d, err %v, body %s", status, err, first)
	}
	if disp != "miss" {
		return fmt.Errorf("synthesize: first request disposition %q, want miss", disp)
	}
	status, disp, second, err := do(ctx, client, http.MethodPost, base+"/v1/synthesize", req)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("synthesize (repeat): status %d, err %v", status, err)
	}
	if disp != "hit" {
		return fmt.Errorf("synthesize (repeat): disposition %q, want hit", disp)
	}
	if !bytes.Equal(first, second) {
		return fmt.Errorf("cache hit body differs from miss body")
	}

	// Margin roundtrip: the same circuit through the Monte Carlo margin
	// analyzer, miss-then-hit, with a sane deterministic yield.
	mreq := fmt.Sprintf(`{"circuit": %q, "options": {"method": "heuristic", "time_limit_ms": 10000}, "margin": {"model": "highcontrast", "sigma": 0.1, "trials": 8, "vectors": 8, "seed": 1}}`, selfcheckBLIF)
	status, disp, mfirst, err := do(ctx, client, http.MethodPost, base+"/v1/margin", mreq)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("margin: status %d, err %v, body %s", status, err, mfirst)
	}
	if disp != "miss" {
		return fmt.Errorf("margin: first request disposition %q, want miss", disp)
	}
	var mrep struct {
		Report struct {
			Trials int     `json:"trials"`
			Yield  float64 `json:"yield"`
		} `json:"report"`
	}
	if err := json.Unmarshal(mfirst, &mrep); err != nil {
		return fmt.Errorf("margin: bad response %s: %v", mfirst, err)
	}
	if mrep.Report.Trials != 8 || mrep.Report.Yield < 0 || mrep.Report.Yield > 1 {
		return fmt.Errorf("margin: implausible report %s", mfirst)
	}
	status, disp, msecond, err := do(ctx, client, http.MethodPost, base+"/v1/margin", mreq)
	if err != nil || status != http.StatusOK || disp != "hit" {
		return fmt.Errorf("margin (repeat): status %d, disposition %q, err %v", status, disp, err)
	}
	if !bytes.Equal(mfirst, msecond) {
		return fmt.Errorf("margin cache hit body differs from miss body")
	}

	// Layered margin roundtrip: a FLOW-3D stack placed on its per-plane
	// defect maps simulates on its physical stack.
	lreq := `{"benchmark": "ctrl", "options": {"method": "heuristic", "layers": 3, "defect_rate": 0.0005, "defect_seed": 1, "time_limit_ms": 10000}, "margin": {"trials": 2, "vectors": 4, "seed": 1}}`
	status, _, body, err = do(ctx, client, http.MethodPost, base+"/v1/margin", lreq)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("layered margin: status %d, err %v, body %s", status, err, body)
	}
	var lrep struct {
		Layers int  `json:"layers"`
		Placed bool `json:"placed"`
	}
	if err := json.Unmarshal(body, &lrep); err != nil || lrep.Layers != 3 || !lrep.Placed {
		return fmt.Errorf("layered margin: want a placed 3-layer report, got %s (%v)", body, err)
	}

	// Async roundtrip: submit the same request as a job, poll to done,
	// and check the result body matches the synchronous one exactly.
	status, _, body, err = do(ctx, client, http.MethodPost, base+"/v1/jobs", req)
	if err != nil || status != http.StatusAccepted {
		return fmt.Errorf("job submit: status %d, err %v, body %s", status, err, body)
	}
	var sub struct {
		ID        string `json:"id"`
		StatusURL string `json:"status_url"`
	}
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		return fmt.Errorf("job submit: bad response %s: %v", body, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, _, body, err = do(ctx, client, http.MethodGet, base+sub.StatusURL, "")
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("job status: status %d, err %v, body %s", status, err, body)
		}
		var st struct {
			Status    string `json:"status"`
			ResultURL string `json:"result_url"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("job status: bad response %s: %v", body, err)
		}
		if st.Status == "done" {
			status, _, body, err = do(ctx, client, http.MethodGet, base+st.ResultURL, "")
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("job result: status %d, err %v, body %s", status, err, body)
			}
			if !bytes.Equal(body, first) {
				return fmt.Errorf("job result body differs from synchronous body")
			}
			break
		}
		if st.Status == "failed" {
			return fmt.Errorf("job failed: %s", body)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job did not finish in time; last status %s", body)
		}
		time.Sleep(50 * time.Millisecond)
	}
	return nil
}

// do issues one request and returns the status, X-Compactd-Cache header
// and body.
func do(ctx context.Context, client *http.Client, method, url, body string) (int, string, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, "", nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("X-Compactd-Cache"), data, nil
}
