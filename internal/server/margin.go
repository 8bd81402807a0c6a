package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"compact/internal/core"
	"compact/internal/logic"
	"compact/internal/spice"
	"compact/internal/wirelimit"
)

// POST /v1/margin — batched variation-aware Monte Carlo margin analysis.
//
// The request is a synthesize request plus a "margin" block:
//
//	{
//	  "benchmark": "ctrl",
//	  "options":   {...},              // same synthesis options as /v1/synthesize
//	  "margin": {
//	    "model":     "default",        // default | highcontrast
//	    "sigma":     0.1,              // shorthand: both sigmas at once
//	    "sigma_on":  0.1,              // log-normal spread of R_on
//	    "sigma_off": 0.1,              // log-normal spread of R_off
//	    "trials":    32,               // Monte Carlo trials (cap 4096)
//	    "vectors":   64,               // input vectors per trial (cap 65536)
//	    "seed":      1,
//	    "top_cells": 8                 // critical-cell list length (cap 4096)
//	  }
//	}
//
// The server synthesizes (or re-uses, via singleflight and the cache key)
// the design exactly as /v1/synthesize would, then runs the per-device
// Monte Carlo under the synthesized placement and defect map. The cache
// key extends the synthesis key with the margin parameters, so identical
// (circuit, options, margin) triples share one cached report and
// concurrent identical requests join one in-flight analysis. Partitioned
// results (multi-tile plans) and designs past the nodal solver's size cap
// are refused with the "margin_unsupported" code (422). Layered requests
// ("layers" >= 3) run on the same nodal solver, pristine or placed on
// their per-plane defect maps.

// maxSigma bounds the requested log-normal spread. exp(4) is a ~55x
// resistance swing — far beyond any fabricated device, and enough to keep
// the sampled systems numerically sane.
const maxSigma = 4.0

// Margin request caps: per-trial work is trials x vectors nodal solves, so
// both factors are bounded at the trust boundary.
const (
	maxMarginTrials   = 4096
	maxMarginVectors  = 1 << 16
	maxMarginTopCells = 4096
)

// marginRequest is the POST /v1/margin body: circuit selection as in
// synthesizeRequest, plus the margin block.
type marginRequest struct {
	Circuit   string       `json:"circuit,omitempty"`
	Benchmark string       `json:"benchmark,omitempty"`
	Format    string       `json:"format,omitempty"`
	Name      string       `json:"name,omitempty"`
	Options   *wireOptions `json:"options,omitempty"`
	Margin    *wireMargin  `json:"margin,omitempty"`
}

// wireMargin is the margin block. Pointer sigmas distinguish "absent"
// (zero spread) from explicit zeros only for documentation symmetry —
// both mean zero; "sigma" is shorthand applying one value to both sides,
// overridden by the specific fields when present.
type wireMargin struct {
	Model    string   `json:"model,omitempty"`
	Sigma    *float64 `json:"sigma,omitempty"`
	SigmaOn  *float64 `json:"sigma_on,omitempty"`
	SigmaOff *float64 `json:"sigma_off,omitempty"`
	Trials   int      `json:"trials,omitempty"`
	Vectors  int      `json:"vectors,omitempty"`
	Seed     uint64   `json:"seed,omitempty"`
	TopCells int      `json:"top_cells,omitempty"`
}

// toSpice validates the margin block against the wire caps and resolves
// the canonical model name, the device model, the variation and the Monte
// Carlo options.
func (m *wireMargin) toSpice() (string, spice.DeviceModel, spice.Variation, spice.MonteCarloOptions, error) {
	var (
		name  = "default"
		model = spice.Default()
		v     spice.Variation
		opts  spice.MonteCarloOptions
	)
	if m == nil {
		return name, model, v, opts, nil
	}
	switch m.Model {
	case "", "default":
	case "highcontrast":
		name, model = "highcontrast", spice.HighContrast()
	default:
		return name, model, v, opts, fmt.Errorf("unknown device model %q (want default or highcontrast)", m.Model)
	}
	sigma := func(field string, p *float64) (float64, error) {
		if p == nil {
			return 0, nil
		}
		s := *p
		if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 || s > maxSigma {
			return 0, fmt.Errorf("%s %v outside [0, %g]", field, s, maxSigma)
		}
		return s, nil
	}
	both, err := sigma("sigma", m.Sigma)
	if err != nil {
		return name, model, v, opts, err
	}
	v.SigmaOn, v.SigmaOff = both, both
	if s, err := sigma("sigma_on", m.SigmaOn); err != nil {
		return name, model, v, opts, err
	} else if m.SigmaOn != nil {
		v.SigmaOn = s
	}
	if s, err := sigma("sigma_off", m.SigmaOff); err != nil {
		return name, model, v, opts, err
	} else if m.SigmaOff != nil {
		v.SigmaOff = s
	}
	if err := wirelimit.CheckCount("trials", m.Trials, maxMarginTrials); err != nil {
		return name, model, v, opts, err
	}
	if err := wirelimit.CheckCount("vectors", m.Vectors, maxMarginVectors); err != nil {
		return name, model, v, opts, err
	}
	if err := wirelimit.CheckCount("top_cells", m.TopCells, maxMarginTopCells); err != nil {
		return name, model, v, opts, err
	}
	opts.Trials = m.Trials
	opts.Vectors = m.Vectors
	opts.Seed = m.Seed
	opts.TopCells = m.TopCells
	return name, model, v, opts, nil
}

// marginResponse is the 200 body of /v1/margin.
type marginResponse struct {
	Key      string  `json:"key"`
	Model    string  `json:"model"`
	SigmaOn  float64 `json:"sigma_on"`
	SigmaOff float64 `json:"sigma_off"`
	Rows     int     `json:"rows"`
	Cols     int     `json:"cols"`
	Placed   bool    `json:"placed"`
	// Layers is the wire-layer count of a layered (FLOW-3D) analysis; 0
	// for classic 2D arrays. Rows/Cols are then the stack's footprint
	// projection.
	Layers int                    `json:"layers,omitempty"`
	Report spice.MonteCarloReport `json:"report"`
}

// errMarginUnsupported marks solve outcomes the margin analyzer cannot
// simulate (partitioned plans, arrays past the nodal size cap,
// defect-placed layered stacks).
var errMarginUnsupported = errors.New("margin analysis unsupported for this result")

// marginKey extends the synthesis cache key with the margin parameters,
// so reports never alias across models, spreads or sampling setups.
func marginKey(synthKey string, model spice.DeviceModel, v spice.Variation, opts spice.MonteCarloOptions) string {
	sum := sha256.Sum256([]byte(model.Key() + "|" + v.Key() + "|" + opts.Key()))
	return synthKey + "|margin|" + fmt.Sprintf("sha256:%x", sum)
}

// handleMargin is POST /v1/margin.
func (s *Server) handleMargin(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	s.metrics.marginRequests.Add(1)
	if !s.admit(w) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields() // the wire format is strict: typos are 400s
	var req marginRequest
	if err := dec.Decode(&req); err != nil {
		s.clientError(w, codeInvalidRequest, nil, "malformed request: %v", err)
		return
	}
	nw, code, err := s.resolveNetwork(&synthesizeRequest{
		Circuit: req.Circuit, Benchmark: req.Benchmark, Format: req.Format, Name: req.Name,
	})
	if err != nil {
		s.clientError(w, code, nil, "%v", err)
		return
	}
	opts, err := req.Options.toCore(s.cfg.DefaultTimeLimit, s.cfg.MaxTimeLimit)
	if err != nil {
		s.clientError(w, codeInvalidOptions, nil, "invalid options: %v", err)
		return
	}
	modelName, model, variation, mcopts, err := req.Margin.toSpice()
	if err != nil {
		s.clientError(w, codeInvalidOptions, nil, "invalid margin parameters: %v", err)
		return
	}
	key := marginKey(cacheKey(nw, opts), model, variation, mcopts)

	if body, disposition, ok, _ := s.cache.get(key); ok {
		s.countCacheHit(disposition)
		s.writeResult(w, disposition, body)
		return
	}
	fl, leader := s.flights.do(key, func() ([]byte, error) {
		return s.solveMargin(s.base, key, nw, opts, modelName, model, variation, mcopts)
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
		writeErrorCode(w, codeRequestAbandoned, nil, "request abandoned: %v", err)
	case errors.Is(err, errMarginUnsupported), errors.Is(err, spice.ErrTooLarge):
		s.metrics.badRequests.Add(1)
		writeErrorCode(w, codeMarginUnsupported, nil, "%v", err)
	default:
		code, detail := classifySolveError(err)
		if code == codeInfeasible || code == codeUnplaceable {
			s.metrics.badRequests.Add(1)
		}
		writeErrorCode(w, code, detail, "%s", solveErrorMessage(code, err))
	}
}

// solveMargin runs one deduplicated margin analysis: synthesize the design
// on the shared worker pool (synth), then run the Monte Carlo under the
// request's remaining budget and cache the marshaled report through both
// tiers.
func (s *Server) solveMargin(ctx context.Context, key string, nw *logic.Network,
	opts core.Options, modelName string, model spice.DeviceModel, v spice.Variation, mcopts spice.MonteCarloOptions) ([]byte, error) {
	return s.synth(ctx, nw, opts, func(res *core.Result) ([]byte, error) {
		if res.Plan != nil || res.Design == nil {
			return nil, fmt.Errorf("%w: partitioned multi-tile plans have no single-array electrical model", errMarginUnsupported)
		}

		// The Monte Carlo runs under the same per-request budget policy as
		// the solve; expiry degrades to the anytime best-so-far report.
		mcCtx, cancel := context.WithTimeout(ctx, opts.TimeLimit)
		defer cancel()
		mcopts.Workers = s.cfg.Workers
		st := res.Design.Stats()
		resp := marginResponse{
			Key:      key,
			Model:    modelName,
			SigmaOn:  v.SigmaOn,
			SigmaOff: v.SigmaOff,
			Rows:     st.Rows,
			Cols:     st.Cols,
			Placed:   res.Placement != nil,
		}
		if st.K > 2 {
			resp.Layers = st.K
		}
		t0 := time.Now()
		env := spice.Env{Model: model, Defects: res.Defects, Placement: res.Placement}
		rep, err := spice.MonteCarloContext(mcCtx, res.Design, res.Design.Eval, len(res.Design.VarNames), env, v, mcopts)
		s.metrics.marginMillis.Add(float64(time.Since(t0)) / float64(time.Millisecond))
		if errors.Is(err, spice.ErrTooLarge) {
			return nil, fmt.Errorf("%w: %v", errMarginUnsupported, err)
		}
		if err != nil {
			return nil, err
		}
		s.metrics.margins.Add(1)
		resp.Report = rep
		body, err := json.Marshal(resp)
		if err != nil {
			return nil, fmt.Errorf("encoding result: %w", err)
		}
		s.cache.put(key, body)
		return body, nil
	})
}
