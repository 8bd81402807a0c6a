package xbar

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"compact/internal/bdd"
	"compact/internal/labeling"
)

// Property: the synthesized design agrees with the network under every
// labeling method, on random networks and random vectors.
func TestQuickDesignMatchesNetwork(t *testing.T) {
	prop := func(seed int64, vec uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nw := randomNetwork(rng, 5, 12)
		m, roots, err := bdd.BuildNetwork(nw, nil, 0)
		if err != nil {
			return false
		}
		bg, err := FromBDD(m, roots, nw.OutputNames)
		if err != nil {
			return false
		}
		sol, err := labeling.SolveContext(context.Background(), bg.Problem(true), labeling.Options{Method: labeling.MethodHeuristic})
		if err != nil {
			return false
		}
		d, err := Map(bg, sol.Labels)
		if err != nil {
			return false
		}
		in := make([]bool, 5)
		for i := range in {
			in[i] = vec&(1<<uint(i)) != 0
		}
		want := nw.Eval(in)
		got := d.Eval(in)
		for o := range want {
			if want[o] != got[o] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Failure injection: corrupting any literal cell of a design must be
// caught by exhaustive verification (the verifier is not vacuous).
func TestFailureInjectionCaughtByVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	caught, injected := 0, 0
	for trial := 0; trial < 10; trial++ {
		nw := randomNetwork(rng, 5, 15)
		m, roots, err := bdd.BuildNetwork(nw, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		bg, err := FromBDD(m, roots, nw.OutputNames)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := labeling.SolveContext(context.Background(), bg.Problem(true), labeling.Options{Method: labeling.MethodHeuristic})
		if err != nil {
			t.Fatal(err)
		}
		d, err := Map(bg, sol.Labels)
		if err != nil {
			t.Fatal(err)
		}
		// Flip the polarity of each literal cell in turn.
		for r := 0; r < d.Rows; r++ {
			for c := 0; c < d.Cols; c++ {
				if d.Planes[0].At(r, c).Kind != Lit {
					continue
				}
				injected++
				fresh, err := Map(bg, sol.Labels) // clean copy
				if err != nil {
					t.Fatal(err)
				}
				flipCell(&fresh.Planes[0], r, c)
				if bad := fresh.VerifyAgainst(nw.Eval, 5, 10, 0, 1); bad != nil {
					caught++
				}
			}
		}
	}
	if injected == 0 {
		t.Fatal("no literal cells to corrupt")
	}
	// Some flips may be logically redundant (the path is masked), but the
	// vast majority must be detected.
	if caught*10 < injected*8 {
		t.Errorf("only %d/%d injected faults caught", caught, injected)
	}
}

// Failure injection: a stuck-on device (Off -> On) that bridges the wrong
// nanowires must also be caught.
func TestStuckOnFaultCaught(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	caught, injected := 0, 0
	for trial := 0; trial < 10; trial++ {
		nw := randomNetwork(rng, 5, 15)
		m, roots, err := bdd.BuildNetwork(nw, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		bg, err := FromBDD(m, roots, nw.OutputNames)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := labeling.SolveContext(context.Background(), bg.Problem(true), labeling.Options{Method: labeling.MethodHeuristic})
		if err != nil {
			t.Fatal(err)
		}
		d, err := Map(bg, sol.Labels)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < d.Rows && injected < 200; r++ {
			for c := 0; c < d.Cols; c++ {
				if d.Planes[0].At(r, c).Kind != Off {
					continue
				}
				injected++
				fresh, err := Map(bg, sol.Labels)
				if err != nil {
					t.Fatal(err)
				}
				setCell(&fresh.Planes[0], r, c, Entry{Kind: On})
				if bad := fresh.VerifyAgainst(nw.Eval, 5, 10, 0, 1); bad != nil {
					caught++
				}
			}
		}
	}
	if injected == 0 {
		t.Skip("no Off cells")
	}
	// Stuck-on faults short unrelated wires; most change the function.
	if caught*10 < injected*5 {
		t.Errorf("only %d/%d stuck-on faults caught", caught, injected)
	}
}
