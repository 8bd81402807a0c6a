package main

import (
	"bytes"
	"math/rand"
	"testing"

	"compact/internal/core"
	"compact/internal/labeling"
	"compact/internal/parse"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestSeedChangesTextNotDesign checks that the seed only renames nets: the
// BLIF differs between seeds, the synthesized design does not.
func TestSeedChangesTextNotDesign(t *testing.T) {
	var texts, designs [][]byte
	for _, seed := range []int64{1, 2} {
		c, err := makeCircuit("int2float", newRand(seed))
		if err != nil {
			t.Fatal(err)
		}
		nw, err := parse.Parse(bytes.NewReader(c.blif), parse.BLIF)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Synthesize(nw, core.Options{Method: labeling.MethodHeuristic})
		if err != nil {
			t.Fatal(err)
		}
		if err := verify2D(res.Design, c.src); err != nil {
			t.Fatal(err)
		}
		wire, err := res.Design.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		texts, designs = append(texts, c.blif), append(designs, wire)
	}
	if bytes.Equal(texts[0], texts[1]) {
		t.Error("seeds 1 and 2 produced the same BLIF text")
	}
	if !bytes.Equal(designs[0], designs[1]) {
		t.Error("seeds 1 and 2 produced different designs")
	}
}
