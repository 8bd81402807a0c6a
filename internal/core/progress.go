package core

import "context"

// Progress receives pipeline milestones during SynthesizeContext, carried
// on the context so deeply nested stages (the repair loop, per-tile
// partitioned synthesis) can report without threading a parameter through
// every signature. compactd's async job API is the consumer: a polling
// client sees repair attempts and completed tiles move while the solve
// runs. Callbacks may fire from the synthesis goroutine at any point
// between entry and return and must be cheap and race-safe; zero-value
// fields are simply not called.
type Progress struct {
	// RepairAttempt reports that the defect-aware verified-repair loop is
	// verifying its n-th candidate placement (1-based).
	RepairAttempt func(n int)
	// TileDone reports that n tiles of a partitioned cascade have
	// completed synthesis and verification so far.
	TileDone func(n int)
}

type progressCtxKey struct{}

// WithProgress returns a context carrying p. SynthesizeContext (and the
// stages below it) report milestones through the carried callbacks.
func WithProgress(ctx context.Context, p Progress) context.Context {
	return context.WithValue(ctx, progressCtxKey{}, p)
}

// progressFrom extracts the carried Progress; the zero value (no
// callbacks) when none was attached.
func progressFrom(ctx context.Context) Progress {
	p, _ := ctx.Value(progressCtxKey{}).(Progress)
	return p
}
