package xbar

import (
	"sync"
	"testing"
)

// andDesign builds a tiny 2-input AND crossbar by hand: the input wordline
// reaches the output wordline iff both literals conduct through the shared
// bitline chain.
func andDesign() *Design {
	d := testDesign(3, 2)
	setCell(&d.Planes[0], 2, 0, Entry{Kind: Lit, Var: 0}) // input row -> bitline 0 via a
	setCell(&d.Planes[0], 1, 0, Entry{Kind: Lit, Var: 1}) // bitline 0 -> middle row via b
	setCell(&d.Planes[0], 1, 1, Entry{Kind: On})          // middle row -> bitline 1
	setCell(&d.Planes[0], 0, 1, Entry{Kind: On})          // bitline 1 -> output row
	d.Input = WireRef{Index: 2}
	d.Outputs = rowRefs(0)
	return d
}

// TestEvalConcurrentFirstCall races the very first Eval calls on a fresh
// Design: the compiled wire graph is built lazily on first use and must be
// published safely even when several goroutines trigger it simultaneously
// (the atomic pointer in Design.Wires; run under -race).
func TestEvalConcurrentFirstCall(t *testing.T) {
	d := andDesign()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := 0; a < 4; a++ {
				in := []bool{a&1 != 0, a&2 != 0}
				got := d.Eval(in)[0]
				want := in[0] && in[1]
				if got != want {
					t.Errorf("Eval(%v) = %v, want %v", in, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := len(d.Wires().Edges); n != 4 {
		t.Errorf("wire graph has %d edges, want 4", n)
	}
}
