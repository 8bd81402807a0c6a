package compact_test

import (
	"fmt"
	"sync"
	"testing"

	compact "compact"
)

// buildParity returns an n-input odd-parity network, a convenient family of
// independent, non-bipartite synthesis workloads.
func buildParity(n int) *compact.Network {
	b := compact.NewBuilder(fmt.Sprintf("par%d", n))
	x := b.Input("x0")
	for i := 1; i < n; i++ {
		x = b.Xor(x, b.Input(fmt.Sprintf("x%d", i)))
	}
	b.Output("p", x)
	return b.Build()
}

// TestSynthesizeConcurrent exercises the full pipeline from two goroutines
// at once on independent networks. Synthesize is documented as safe for
// concurrent use on distinct inputs — each call must build its own BDD
// manager, graphs and solver state; the race detector enforces it.
func TestSynthesizeConcurrent(t *testing.T) {
	t.Parallel()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			nw := buildParity(3 + g)
			for iter := 0; iter < 3; iter++ {
				res, err := compact.Synthesize(nw, compact.Options{Gamma: 0.5})
				if err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, iter, err)
					return
				}
				if err := res.Verify(1<<uint(nw.NumInputs()), 0, 1); err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, iter, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSynthesizeConcurrentMethods runs distinct labeling methods
// concurrently against the same immutable source network (each Synthesize
// re-derives its own BDD, so sharing the input is legal).
func TestSynthesizeConcurrentMethods(t *testing.T) {
	t.Parallel()
	nw := buildParity(4)
	methods := []compact.Options{
		{Method: compact.MethodOCT},
		{Method: compact.MethodHeuristic},
		{Method: compact.MethodPortfolio},
	}
	var wg sync.WaitGroup
	for i, opts := range methods {
		wg.Add(1)
		go func(i int, opts compact.Options) {
			defer wg.Done()
			res, err := compact.Synthesize(nw, opts)
			if err != nil {
				t.Errorf("method %d: %v", i, err)
				return
			}
			if err := res.Verify(16, 0, 1); err != nil {
				t.Errorf("method %d: %v", i, err)
			}
		}(i, opts)
	}
	wg.Wait()
}

// TestDesignEvalConcurrentFirstUse evaluates a freshly synthesized design
// from many goroutines with no prior warm-up call: the very first Eval
// compiles the design's wire graph lazily, and that build must be safe
// when several Evals race to trigger it (the atomic pointer in
// xbar.Design.Wires; the race detector enforces it).
func TestDesignEvalConcurrentFirstUse(t *testing.T) {
	t.Parallel()
	nw := buildParity(5)
	res, err := compact.Synthesize(nw, compact.Options{Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			in := make([]bool, nw.NumInputs())
			for a := 0; a < 1<<uint(len(in)); a++ {
				parity := false
				for i := range in {
					in[i] = a&(1<<uint(i)) != 0
					parity = parity != in[i]
				}
				out := res.Design.Eval(in)
				if out[0] != parity {
					t.Errorf("goroutine %d: Eval(%v) = %v, want %v", g, in, out[0], parity)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
