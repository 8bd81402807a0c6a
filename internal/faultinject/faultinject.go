// Package faultinject provides deterministic, environment-gated fault
// injection at the COMPACT pipeline's stage boundaries. It exists so tests
// (and operators running chaos drills) can force each error path — parse
// failure, BDD blow-up, labeling infeasibility, mapping failure, placement
// corruption, server unavailability — and assert that the pipeline
// degrades the documented way (structured error, anytime result, compactd
// 4xx/5xx) instead of panicking or silently emitting a wrong crossbar.
//
// Injection is controlled entirely by the COMPACT_FAULTS environment
// variable, a comma-separated list of stage[=mode] entries:
//
//	COMPACT_FAULTS=bdd                      # generic failure at the BDD stage
//	COMPACT_FAULTS=labeling=infeasible      # labeling reports infeasibility
//	COMPACT_FAULTS=parse,server=unavailable # multiple stages at once
//
// The package holds no mutable state: the environment is consulted on
// every probe, so tests can flip injection on and off with t.Setenv and
// the zero-configuration cost is one os.Getenv per stage boundary per
// request. With the variable unset every probe is a no-op, which is the
// production configuration.
//
// Modes are interpreted by the injection site; the two generic ones are
// handled here (Err): "fail" (the default) yields an error wrapping
// ErrInjected, "timeout" yields one wrapping context.DeadlineExceeded.
// Site-specific modes (e.g. "infeasible" at the labeling boundary,
// "corrupt" at the placement boundary, "unavailable" at the server
// boundary) are read through Mode.
//
// Budget is the one injection that is not read from the environment: a
// context that expires at a chosen check instead of at a clock time, so a
// test can end an anytime solver's budget at a fixed point of its work.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EnvVar is the environment variable holding the injection spec.
const EnvVar = "COMPACT_FAULTS"

// Stage names for the pipeline boundaries that carry injection probes.
const (
	StageParse    = "parse"    // circuit ingestion (internal/parse)
	StageBDD      = "bdd"      // BDD construction (core)
	StageLabeling = "labeling" // VH-labeling solve (core)
	StageMap      = "xbar"     // crossbar mapping (core)
	StagePlace    = "place"    // defect-aware placement (core)
	StageSpice    = "spice"    // electrical Monte Carlo margin analysis (internal/spice)
	StageServer   = "server"   // compactd request admission
)

// ErrInjected marks every error produced by this package, so handlers and
// tests can recognize injected failures with errors.Is.
var ErrInjected = errors.New("injected fault")

// Mode reports whether injection is enabled for stage, and with which
// mode ("fail" when the spec names the stage without an explicit mode).
// Malformed spec entries are ignored rather than guessed at.
func Mode(stage string) (string, bool) {
	spec := os.Getenv(EnvVar)
	if spec == "" {
		return "", false
	}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, mode, hasMode := strings.Cut(entry, "=")
		if name != stage {
			continue
		}
		if !hasMode || mode == "" {
			mode = "fail"
		}
		return mode, true
	}
	return "", false
}

// Err returns the error to inject at stage, or nil when injection is off
// or the configured mode is site-specific. Generic modes:
//
//	fail    → error wrapping ErrInjected
//	timeout → error wrapping both ErrInjected and context.DeadlineExceeded
func Err(stage string) error {
	mode, ok := Mode(stage)
	if !ok {
		return nil
	}
	switch mode {
	case "fail":
		return fmt.Errorf("faultinject: %w at stage %s", ErrInjected, stage)
	case "timeout":
		return fmt.Errorf("faultinject: %w at stage %s: %w", ErrInjected, stage, context.DeadlineExceeded)
	}
	return nil // site-specific mode; the boundary interprets it via Mode
}

// Budget returns a context that passes its first n checks and expires as
// the n-th returns: every later check sees context.DeadlineExceeded, and
// its one Done channel closes, so contexts derived from it are cancelled
// too. A check is a call of Err or Deadline, the two calls a solver makes
// where it decides whether to go on; a derived cancel context's Deadline
// reaches this one, so its checks count as well. n <= 0 gives a context
// that is dead on entry. The expiry depends only on how many checks ran,
// never on the clock.
func Budget(n int) context.Context {
	c := &budgetCtx{done: make(chan struct{})}
	c.left.Store(int64(n))
	if n <= 0 {
		c.expire()
	}
	return c
}

// budgetCtx is Budget's context.
type budgetCtx struct {
	left  atomic.Int64 // checks still live; the check that takes it to 0 closes done
	done  chan struct{}
	close sync.Once
}

// check counts one check and reports the context's state after it.
func (c *budgetCtx) check() error {
	left := c.left.Add(-1)
	if left <= 0 {
		c.expire()
	}
	if left < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

func (c *budgetCtx) expire() { c.close.Do(func() { close(c.done) }) }

func (c *budgetCtx) Deadline() (time.Time, bool) {
	_ = c.check() // counted only: the budget has no clock time
	return time.Time{}, false
}

func (c *budgetCtx) Done() <-chan struct{} { return c.done }
func (c *budgetCtx) Err() error            { return c.check() }
func (c *budgetCtx) Value(any) any         { return nil }
