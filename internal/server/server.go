// Package server implements compactd, the COMPACT synthesis service: an
// HTTP JSON API that parses submitted circuits (BLIF, PLA or structural
// Verilog, auto-detected), synthesizes crossbar designs through the
// context-cancellable core pipeline on a bounded worker pool, and serves
// repeated requests from a content-addressed result cache.
//
// Four mechanisms amortize solver work across traffic, in order:
//
//  1. Content addressing: requests are keyed by
//     logic.Network.Fingerprint() x core.Options.Key(), so identical
//     (circuit, options) pairs — regardless of gate numbering, input
//     format or how defaults were spelled — share one cache slot.
//  2. An in-memory LRU result cache stores the exact marshaled response
//     bodies; hits are byte-identical to the miss that populated them and
//     skip the solver entirely.
//  3. A persistent disk tier (internal/store) under the memory cache, so
//     results survive restarts and fleet members sharing a directory
//     share work; disk hits are promoted back into memory and reported
//     as X-Compactd-Cache: disk.
//  4. Singleflight deduplication: concurrent identical requests join one
//     in-flight solve instead of queuing duplicates behind it.
//
// Large solves that outlive a request budget run through the async job
// API (POST /v1/jobs, see jobs.go): submission returns immediately, the
// solve proceeds on the same worker pool with live progress, and the
// completed result lands in both cache tiers.
//
// Synchronous solves run detached from individual request contexts (a
// client that disconnects does not cancel work others are waiting on);
// the per-request budget is enforced through core.Options.TimeLimit,
// whose expiry degrades to the anytime best-so-far result rather than an
// error. Every non-2xx response on the /v1/* surface is the typed error
// envelope defined in wire.go. Observability: /debug/vars serves
// request/cache/store/job/solver counters (including per-engine portfolio
// latencies) and /debug/pprof the standard profiles.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"time"

	"compact/internal/bench"
	"compact/internal/core"
	"compact/internal/faultinject"
	"compact/internal/labeling"
	"compact/internal/logic"
	"compact/internal/parse"
	"compact/internal/store"
	"compact/internal/xbar"
)

// SynthFunc is the synthesis pipeline the server drives; production
// servers use core.SynthesizeContext, tests may substitute instrumented
// stand-ins.
type SynthFunc func(ctx context.Context, nw *logic.Network, opts core.Options) (*core.Result, error)

// Config tunes a Server. The zero value gives production defaults
// (memory-only: no store directory, so neither results nor job records
// survive a restart).
type Config struct {
	// Workers bounds concurrent solves (default: GOMAXPROCS).
	Workers int
	// CacheEntries / CacheBytes bound the in-memory result cache
	// (defaults: 512 entries, 256 MiB of response bodies).
	CacheEntries int
	CacheBytes   int64
	// StoreDir enables the persistent disk tier: results (and job
	// records) are written under this directory and survive restarts.
	// Empty disables the tier. StoreMaxBytes bounds the result files
	// (default 1 GiB); LRU entries are evicted past it.
	StoreDir      string
	StoreMaxBytes int64
	// MaxJobs bounds the async job table, counting live and terminal
	// jobs; submissions past it evict the oldest terminal job or are
	// refused with 429 overloaded (default 256).
	MaxJobs int
	// DefaultTimeLimit is the per-request solve budget applied when the
	// request specifies none (default 30s); MaxTimeLimit clamps what a
	// request may ask for (default 5m). Both feed core.Options.TimeLimit,
	// so they are part of the cache key.
	DefaultTimeLimit time.Duration
	MaxTimeLimit     time.Duration
	// MaxBodyBytes caps the request body (default 64 MiB).
	MaxBodyBytes int64
	// Synth overrides the synthesis pipeline (tests); nil means
	// core.SynthesizeContext.
	Synth SynthFunc
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 512
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.StoreMaxBytes <= 0 {
		c.StoreMaxBytes = 1 << 30
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 256
	}
	if c.DefaultTimeLimit <= 0 {
		c.DefaultTimeLimit = 30 * time.Second
	}
	if c.MaxTimeLimit <= 0 {
		c.MaxTimeLimit = 5 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.Synth == nil {
		c.Synth = core.SynthesizeContext
	}
	return c
}

// errShuttingDown reports that the server's base context ended.
var errShuttingDown = errors.New("server: shutting down")

// Server is the compactd request handler. Create with New, mount via
// Handler. Safe for concurrent use; all mutable state is per-instance.
type Server struct {
	cfg     Config
	base    context.Context
	metrics *metrics
	cache   *tieredCache
	flights *flightGroup
	jobs    *jobTable
	sem     chan struct{} // worker-pool slots
	mux     *http.ServeMux
	start   time.Time
	benches []benchmarkInfo
}

// New builds a Server. base is the server's lifetime: canceling it fails
// new and queued solves with 503 (in-flight HTTP exchanges are the
// embedding http.Server's to drain; pair this with Shutdown). New fails
// only when cfg.StoreDir is set but cannot be opened; job records from a
// previous run under the same directory are recovered (interrupted jobs
// resurface as failed with the "interrupted" code, completed ones keep
// serving their stored results).
func New(base context.Context, cfg Config) (*Server, error) {
	if base == nil {
		base = context.Background()
	}
	cfg = cfg.withDefaults()
	m := newMetrics()
	var disk *store.Store
	if cfg.StoreDir != "" {
		var err error
		disk, err = store.Open(cfg.StoreDir, cfg.StoreMaxBytes)
		if err != nil {
			return nil, fmt.Errorf("server: opening store: %w", err)
		}
	}
	s := &Server{
		cfg:     cfg,
		base:    base,
		metrics: m,
		cache:   newTieredCache(newResultCache(cfg.CacheEntries, cfg.CacheBytes), disk, m),
		flights: newFlightGroup(),
		sem:     make(chan struct{}, cfg.Workers),
		mux:     http.NewServeMux(),
		start:   time.Now(),
	}
	jobs, err := newJobTable(cfg.MaxJobs, cfg.StoreDir, m)
	if err != nil {
		return nil, fmt.Errorf("server: recovering job table: %w", err)
	}
	s.jobs = jobs
	if disk != nil {
		s.cache.syncDiskStats()
	}
	for _, g := range bench.All() {
		s.benches = append(s.benches, benchmarkInfo{
			Name:        g.Name,
			Suite:       g.Suite,
			Inputs:      g.Inputs,
			Outputs:     g.Outputs,
			Description: g.Description,
		})
	}
	s.mux.HandleFunc("POST /v1/synthesize", s.handleSynthesize)
	s.mux.HandleFunc("POST /v1/margin", s.handleMargin)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /debug/vars", s.metrics.handleVars)
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s, nil
}

// Handler returns the server's HTTP handler. Responses the mux generates
// itself on the /v1/* surface (404 for unknown routes, 405 for wrong
// methods) are rewritten into the error envelope, so every non-2xx body a
// /v1 client can observe is the typed schema.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			w = &envelopeWriter{ResponseWriter: w}
		}
		s.mux.ServeHTTP(w, r)
	})
}

// envelopeWriter rewrites the mux's own plain-text 404/405 refusals into
// the error envelope. Handler-written responses (which set a JSON
// content type before WriteHeader) pass through untouched.
type envelopeWriter struct {
	http.ResponseWriter
	suppress bool
}

func (e *envelopeWriter) WriteHeader(status int) {
	if (status == http.StatusNotFound || status == http.StatusMethodNotAllowed) &&
		strings.HasPrefix(e.Header().Get("Content-Type"), "text/plain") {
		code := codeNotFound
		if status == http.StatusMethodNotAllowed {
			code = codeMethodNotAllowed
		}
		body, err := json.Marshal(errorEnvelope{Error: wireError{
			Code:    code,
			Message: http.StatusText(status),
		}})
		if err == nil {
			e.suppress = true
			e.Header().Set("Content-Type", "application/json; charset=utf-8")
			e.Header().Set("Content-Length", strconv.Itoa(len(body)))
			e.ResponseWriter.WriteHeader(status)
			_, _ = e.ResponseWriter.Write(body)
			return
		}
	}
	e.ResponseWriter.WriteHeader(status)
}

func (e *envelopeWriter) Write(b []byte) (int, error) {
	if e.suppress {
		return len(b), nil // the plain-text body the mux wanted to send
	}
	return e.ResponseWriter.Write(b)
}

// Metrics returns the server's expvar map (for embedding into a global
// registry when desired; it is not globally registered by default).
func (s *Server) Metrics() *expvar.Map { return s.metrics.vars }

// admit runs the fault-injection admission probe shared by the solve
// routes; it reports whether the request may proceed.
func (s *Server) admit(w http.ResponseWriter) bool {
	mode, ok := faultinject.Mode(faultinject.StageServer)
	if !ok {
		return true
	}
	// Chaos-drill admission probe: "unavailable" degrades to the same 503
	// a shutting-down server sends; generic modes become 500s.
	if mode == "unavailable" {
		writeErrorCode(w, codeUnavailable, nil, "service unavailable (injected)")
		return false
	}
	if err := faultinject.Err(faultinject.StageServer); err != nil {
		writeErrorCode(w, codeInternal, nil, "%v", err)
		return false
	}
	return true
}

// decodeSynthesizeRequest parses and resolves a synthesize/job request
// body into its network, canonical options and cache key, writing the
// envelope itself on failure (the returned bool reports success).
func (s *Server) decodeSynthesizeRequest(w http.ResponseWriter, r *http.Request) (*logic.Network, core.Options, string, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields() // the wire format is strict: typos are 400s
	var req synthesizeRequest
	if err := dec.Decode(&req); err != nil {
		s.clientError(w, codeInvalidRequest, nil, "malformed request: %v", err)
		return nil, core.Options{}, "", false
	}
	nw, code, err := s.resolveNetwork(&req)
	if err != nil {
		s.clientError(w, code, nil, "%v", err)
		return nil, core.Options{}, "", false
	}
	opts, err := req.Options.toCore(s.cfg.DefaultTimeLimit, s.cfg.MaxTimeLimit)
	if err != nil {
		s.clientError(w, codeInvalidOptions, nil, "invalid options: %v", err)
		return nil, core.Options{}, "", false
	}
	return nw, opts, cacheKey(nw, opts), true
}

// handleSynthesize is POST /v1/synthesize.
func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	if !s.admit(w) {
		return
	}
	nw, opts, key, ok := s.decodeSynthesizeRequest(w, r)
	if !ok {
		return
	}

	if body, disposition, ok, _ := s.cache.get(key); ok {
		s.countCacheHit(disposition)
		s.writeResult(w, disposition, body)
		return
	}

	fl, leader := s.flights.do(key, func() ([]byte, error) {
		return s.solve(s.base, key, nw, opts)
	})
	if leader {
		s.metrics.cacheMisses.Add(1)
	} else {
		s.metrics.cacheShared.Add(1)
	}
	body, err := fl.wait(r.Context())
	switch {
	case err == nil:
		disposition := "miss"
		if !leader {
			disposition = "shared"
		}
		s.writeResult(w, disposition, body)
	case errors.Is(err, context.Canceled) && r.Context().Err() != nil,
		errors.Is(err, context.DeadlineExceeded) && r.Context().Err() != nil:
		// The waiter's own request context ended; the solve itself
		// continues for any remaining waiters and the cache.
		writeErrorCode(w, codeRequestAbandoned, nil, "request abandoned: %v", err)
	default:
		code, detail := classifySolveError(err)
		if code == codeInfeasible || code == codeUnplaceable {
			s.metrics.badRequests.Add(1)
		}
		writeErrorCode(w, code, detail, "%s", solveErrorMessage(code, err))
	}
}

// countCacheHit bumps the counter matching a cache disposition.
func (s *Server) countCacheHit(disposition string) {
	if disposition == "disk" {
		s.metrics.cacheDiskHits.Add(1)
	} else {
		s.metrics.cacheHits.Add(1)
	}
}

// classifySolveError maps a solve failure to its envelope code and
// optional detail. The order matters: typed verdicts (infeasible,
// unplaceable) outrank the generic context sentinels they may wrap.
func classifySolveError(err error) (code string, detail any) {
	var ie *core.InfeasibleError
	var up *xbar.Unplaceable
	switch {
	case errors.Is(err, errShuttingDown):
		return codeShuttingDown, nil
	case errors.As(err, &ie):
		return codeInfeasible, &infeasibleDetail{
			Nodes:           ie.Nodes,
			SemiperimeterLB: ie.Nodes + ie.OCTLowerBound,
			MaxRows:         ie.MaxRows,
			MaxCols:         ie.MaxCols,
		}
	case errors.Is(err, labeling.ErrInfeasible):
		return codeInfeasible, nil
	case errors.As(err, &up):
		return codeUnplaceable, &unplaceableDetail{
			Stage:      up.Stage,
			LogicalRow: up.LogicalRow,
			Candidates: up.Candidates,
			Proven:     up.Proven,
		}
	case errors.Is(err, context.DeadlineExceeded):
		// The solve budget expired before even an anytime incumbent
		// existed (e.g. BDD construction or partitioning ran out the whole
		// clock): a timeout, not a server fault.
		return codeBudgetExceeded, nil
	case errors.Is(err, context.Canceled):
		// The underlying shared solve was canceled (a job DELETE); the
		// request can be retried.
		return codeCanceled, nil
	default:
		return codeInternal, nil
	}
}

// solveErrorMessage renders the human-readable message for a classified
// solve failure.
func solveErrorMessage(code string, err error) string {
	switch code {
	case codeInfeasible:
		return fmt.Sprintf("infeasible: %v", err)
	case codeUnplaceable:
		return fmt.Sprintf("unplaceable: %v", err)
	case codeBudgetExceeded:
		return fmt.Sprintf("solve budget exhausted before any result: %v", err)
	case codeInternal:
		return fmt.Sprintf("synthesis failed: %v", err)
	default:
		return err.Error()
	}
}

// resolveNetwork turns the request into a logic.Network, reporting the
// envelope code to use on error.
func (s *Server) resolveNetwork(req *synthesizeRequest) (*logic.Network, string, error) {
	hasCircuit := req.Circuit != ""
	hasBench := req.Benchmark != ""
	switch {
	case hasCircuit && hasBench:
		return nil, codeInvalidRequest, errors.New("request sets both circuit and benchmark")
	case hasBench:
		g, ok := bench.ByName(req.Benchmark)
		if !ok {
			return nil, codeUnknownBenchmark, fmt.Errorf("unknown benchmark %q (see /v1/benchmarks)", req.Benchmark)
		}
		return g.Build(), "", nil
	case hasCircuit:
		format, err := parse.FormatFromString(req.Format)
		if err != nil {
			return nil, codeInvalidRequest, err
		}
		t0 := time.Now()
		nw, err := parse.ParseNamed(strings.NewReader(req.Circuit), format, req.Name)
		s.metrics.parseMillis.Add(float64(time.Since(t0)) / float64(time.Millisecond))
		if err != nil {
			return nil, codeParseFailed, fmt.Errorf("parsing circuit: %w", err)
		}
		return nw, "", nil
	default:
		return nil, codeInvalidRequest, errors.New("request needs a circuit or a benchmark name")
	}
}

// solve runs one deduplicated synthesis: acquire a worker slot, run the
// pipeline under ctx (the server's lifetime for synchronous requests, a
// job's cancelable context for async ones; the per-request budget travels
// inside opts.TimeLimit), marshal the response and cache it through both
// tiers.
func (s *Server) solve(ctx context.Context, key string, nw *logic.Network, opts core.Options) ([]byte, error) {
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		if s.base.Err() != nil {
			return nil, errShuttingDown
		}
		return nil, ctx.Err()
	}
	defer func() { <-s.sem }()
	if s.base.Err() != nil {
		return nil, errShuttingDown
	}

	t0 := time.Now()
	res, err := s.cfg.Synth(ctx, nw, opts)
	elapsed := time.Since(t0)
	s.metrics.solves.Add(1)
	s.metrics.solveMillis.Add(float64(elapsed) / float64(time.Millisecond))
	if err != nil {
		s.metrics.solveErrors.Add(1)
		if errors.As(err, new(*xbar.Unplaceable)) {
			s.metrics.unplaceable.Add(1)
		}
		if s.base.Err() != nil {
			return nil, errShuttingDown
		}
		return nil, err
	}
	if res.Placement != nil || res.Placement3D != nil {
		s.metrics.placements.Add(1)
		s.metrics.repairAttempts.Add(int64(res.RepairAttempts))
	}
	if res.Plan != nil {
		s.metrics.partitioned.Add(1)
		s.metrics.tiles.Add(int64(len(res.Plan.Tiles)))
		for _, tl := range res.Plan.Tiles {
			if tl.Placement != nil {
				s.metrics.placements.Add(1)
				s.metrics.repairAttempts.Add(int64(tl.RepairAttempts))
			}
		}
	}
	if res.Labeling != nil {
		for _, er := range res.Labeling.Engines {
			s.metrics.recordEngine(er.Method, float64(er.Elapsed)/float64(time.Millisecond))
		}
	}
	body, err := json.Marshal(synthesizeResponse{Key: key, Result: res.View()})
	if err != nil {
		return nil, fmt.Errorf("encoding result: %w", err)
	}
	s.cache.put(key, body)
	return body, nil
}

// writeResult sends a cached or fresh 200 body with its cache disposition.
func (s *Server) writeResult(w http.ResponseWriter, disposition string, body []byte) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("X-Compactd-Cache", disposition)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// clientError counts and writes a 4xx envelope.
func (s *Server) clientError(w http.ResponseWriter, code string, detail any, format string, args ...any) {
	s.metrics.badRequests.Add(1)
	writeErrorCode(w, code, detail, format, args...)
}

// handleBenchmarks is GET /v1/benchmarks.
func (s *Server) handleBenchmarks(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Benchmarks []benchmarkInfo `json:"benchmarks"`
	}{s.benches})
}

// handleHealthz is GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	type health struct {
		Status   string  `json:"status"`
		UptimeMS float64 `json:"uptime_ms"`
		Inflight int64   `json:"inflight"`
		Workers  int     `json:"workers"`
	}
	h := health{
		Status:   "ok",
		UptimeMS: float64(time.Since(s.start)) / float64(time.Millisecond),
		Inflight: s.metrics.inflight.Value(),
		Workers:  s.cfg.Workers,
	}
	status := http.StatusOK
	if s.base.Err() != nil {
		h.Status = "shutting_down"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// cacheKey composes the content-addressed synthesis key: the network's
// canonical fingerprint crossed with the canonical options key. Both
// halves are stable hashes, so the key is independent of gate numbering,
// input format and default spelling.
func cacheKey(nw *logic.Network, opts core.Options) string {
	return nw.Fingerprint() + "|" + opts.Key()
}
