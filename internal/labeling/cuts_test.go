package labeling

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"compact/internal/ilp"
)

// TestCutsLeaveModel checks that the root's cut rows live on the solver's
// own copy of the model: after an exact solve whose rounds added cuts,
// at K = 2 and at K = 3, the driver's model must write the same text as
// a freshly built one. The K = 3 search does not close on this graph;
// its budget runs out after the root.
func TestCutsLeaveModel(t *testing.T) {
	p := Problem{G: randomGraph(rand.New(rand.NewSource(5)), 40, 0.12)}
	opts := Options{Method: MethodMIP, Gamma: 0.5}
	for _, k := range []int{2, 3} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		build := func() *exactModel {
			if k == 2 {
				return eq4Model(p, opts)
			}
			return intervalModel(p, k, opts)
		}
		m := build()
		cuts := 0
		m.cuts = func(x []float64) []ilp.Constraint {
			c := m.oddCycleCuts(p.G, x)
			cuts += len(c)
			return c
		}
		if _, err := solveExact(ctx, p, opts, m, nil, nil); err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if cuts == 0 {
			t.Fatalf("K=%d: no cut was separated", k)
		}
		fresh := build()
		if _, _, err := fresh.addOCTRows(context.Background(), p, opts); err != nil {
			t.Fatal(err)
		}
		var got, want strings.Builder
		if err := m.mod.WriteText(&got); err != nil {
			t.Fatal(err)
		}
		if err := fresh.mod.WriteText(&want); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("K=%d: %d cuts changed the driver's model", k, cuts)
		}
	}
}
