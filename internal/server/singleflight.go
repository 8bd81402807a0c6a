package server

import (
	"context"
	"sync"
)

// flightGroup deduplicates concurrent work by key, in the style of
// golang.org/x/sync/singleflight (reimplemented here: the repo is
// dependency-free). Unlike the x/sync version, the winning call runs in
// its own goroutine detached from any single request's context: waiters
// that give up (client disconnect, request deadline) do not cancel the
// shared solve, so the result still lands in the cache for the others.
type flightGroup struct {
	mu      sync.Mutex
	flights map[string]*flight
	wg      *sync.WaitGroup // counts running leaders
}

// flight is one in-progress computation.
type flight struct {
	done chan struct{} // closed when body/err are set
	body []byte
	err  error
}

func newFlightGroup(wg *sync.WaitGroup) *flightGroup {
	return &flightGroup{flights: make(map[string]*flight), wg: wg}
}

// do returns the flight computing key, starting fn in a new goroutine if
// none is in progress, and whether this caller started it. fn runs to
// completion exactly once per flight regardless of how many callers join
// or abandon it.
func (g *flightGroup) do(key string, fn func() ([]byte, error)) (f *flight, leader bool) {
	g.mu.Lock()
	if f, ok := g.flights[key]; ok {
		g.mu.Unlock()
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	g.flights[key] = f
	g.mu.Unlock()

	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		body, err := fn()
		// Unregister before publishing: later requests must consult the
		// cache (which fn populated on success) rather than this flight.
		g.mu.Lock()
		delete(g.flights, key)
		g.mu.Unlock()
		f.body, f.err = body, err
		close(f.done)
	}()
	return f, true
}

// wait blocks until the flight completes or ctx is done, whichever comes
// first. On ctx expiry the flight keeps running in the background.
func (f *flight) wait(ctx context.Context) ([]byte, error) {
	select {
	case <-f.done:
		return f.body, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
