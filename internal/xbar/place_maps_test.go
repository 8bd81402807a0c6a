package xbar_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"compact/internal/bench"
	"compact/internal/core"
	"compact/internal/defect"
	"compact/internal/labeling"
	"compact/internal/xbar"
)

// goldenMap is one of the maps internal/core's TestPlaceGolden places: the
// heuristic design of a circuit on a map sized exactly to it, or with one
// spare line per four used lines.
type goldenMap struct {
	circuit string
	spare   bool
	rate    float64
	seed    uint64
}

func (g goldenMap) String() string {
	kind := "exact"
	if g.spare {
		kind = "spare"
	}
	return fmt.Sprintf("%s/%s%.0f%%/s%d", g.circuit, kind, g.rate*100, g.seed)
}

// goldenMaps lists TestPlaceGolden's 28 maps.
func goldenMaps() []goldenMap {
	var gs []goldenMap
	for _, c := range []string{"ctrl", "cavlc"} {
		for _, rate := range []float64{0.01, 0.02} {
			for seed := uint64(1); seed <= 3; seed++ {
				gs = append(gs, goldenMap{c, true, rate, seed})
			}
		}
		for seed := uint64(1); seed <= 3; seed++ {
			gs = append(gs, goldenMap{c, false, 0.01, seed})
		}
	}
	gs = append(gs, goldenMap{"int2float", true, 0.01, 1})
	for _, c := range []string{"ctrl", "cavlc", "int2float"} {
		for _, rate := range []float64{0.01, 0.05, 0.10} {
			gs = append(gs, goldenMap{c, false, rate, 42})
		}
	}
	return gs
}

// designs caches one heuristic design per circuit.
var designs = map[string]*xbar.Design{}

// stack returns g's design and map as a plane stack.
func (g goldenMap) stack(t *testing.T) (*xbar.Design, []*defect.Map) {
	t.Helper()
	d := designs[g.circuit]
	if d == nil {
		res, err := core.Synthesize(bench.MustBuild(g.circuit), core.Options{Method: labeling.MethodHeuristic})
		if err != nil {
			t.Fatalf("%s: %v", g.circuit, err)
		}
		d = res.Design
		designs[g.circuit] = d
	}
	rows, cols := d.Rows, d.Cols
	if g.spare {
		rows, cols = rows+(rows+3)/4, cols+(cols+3)/4
	}
	dm, err := defect.Generate(rows, cols, g.rate, core.DefaultDefectOnFraction, g.seed)
	if err != nil {
		t.Fatalf("%s: %v", g, err)
	}
	return d, []*defect.Map{dm}
}

// TestCompiledMatchesWireOKOnGoldenMaps checks the compiled relation of
// both layers bit for bit against the per-pair scan on every map
// TestPlaceGolden places, under the identity binding and random ones.
func TestCompiledMatchesWireOKOnGoldenMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, g := range goldenMaps() {
		d, maps := g.stack(t)
		phys := []int{maps[0].Rows(), maps[0].Cols()}
		for trial := 0; trial < 3; trial++ {
			perms := make([][]int, 2)
			for l, w := range d.Widths {
				perms[l] = rng.Perm(phys[l])[:w]
				if trial == 0 {
					for i := range perms[l] {
						perms[l][i] = i
					}
				}
			}
			if msg := xbar.CompiledMismatch(t, d.Stack(maps), perms); msg != "" {
				t.Fatalf("%s binding %d: %s", g, trial, msg)
			}
		}
	}
}

// TestGreedyAllocations pins the matcher's scratch reuse: a placement
// stream whose greedy stage fails on every seed and sweep (and whose exact
// stage then skips its over-cap model) allocates a fixed number of times,
// however many wires the design has. A matcher that allocated its seen set
// per augmenting search would allocate once per logical wire, per layer,
// per sweep: over 400 times per seed on cavlc's 53x54 design and over
// 1,100 on int2float's 146x141.
func TestGreedyAllocations(t *testing.T) {
	const bound = 80
	allocs := map[string]float64{}
	for _, g := range []goldenMap{{"cavlc", true, 0.02, 1}, {"int2float", true, 0.01, 1}} {
		d, maps := g.stack(t)
		place := func() error {
			p, err := xbar.NewPlacer(d.Stack(maps), g.seed)
			if err != nil {
				return err
			}
			for {
				if pl, err := p.Next(context.Background(), true); err != nil || pl == nil {
					return err
				}
			}
		}
		var up *xbar.Unplaceable
		if err := place(); !errors.As(err, &up) || up.Stage != "ilp" || up.Proven {
			t.Fatalf("%s: %v, want greedy to fail and the exact stage to skip its model", g, err)
		}
		allocs[g.circuit] = testing.AllocsPerRun(3, func() { _ = place() })
		t.Logf("%s: %.0f", g, allocs[g.circuit])
		if allocs[g.circuit] > bound {
			t.Errorf("%s (%dx%d): a failing stream allocates %.0f times, want at most %d", g, d.Rows, d.Cols, allocs[g.circuit], bound)
		}
	}
	if allocs["int2float"] > allocs["cavlc"] {
		t.Errorf("allocations grow with the design: %.0f on int2float against %.0f on cavlc", allocs["int2float"], allocs["cavlc"])
	}
}
