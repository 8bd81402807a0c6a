package core

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"compact/internal/bdd"
	"compact/internal/bench"
	"compact/internal/labeling"
	"compact/internal/xbar"
	"compact/internal/xbar3d"
)

// The golden mappings pin the crossbar mapper to the wire format: xbar.Map
// and xbar3d.Map3D at K ∈ {3, 4} on heuristic labelings of 14 bundled
// circuits, in SBDD and per-output ROBDD mode, each design recorded as the
// sha256 of its JSON encoding. The same labelings with alignment off pin
// the refusal verdicts (a refusal's wording is not pinned). Map3D at K = 2
// is not recorded: its design is the 2D one, encoded in the same body, so
// its verdict must equal the circuit's map line. A rewrite of the
// mapper has to reproduce testdata/map_golden.txt byte for byte. To
// regenerate after an intended change, delete the file and run the test
// once: it writes the file and fails, asking for review.
//
// The three largest circuits (arbiter, c1355, c499) are pinned in SBDD
// mode with alignment on, at K = 3 only: their lines follow the others.

const mapGoldenFile = "testdata/map_golden.txt"

var mapGoldenCircuits = []string{
	"ctrl", "cavlc", "int2float", "dec", "router", "i2c", "priority",
	"c432", "c880", "c1908", "c2670", "c3540", "c5315", "c7552",
}

var mapGoldenBig = []string{"arbiter", "c1355", "c499"}

// mapGoldenGraph builds the BDD graph the single-crossbar pipeline maps,
// in the DFS variable order.
func mapGoldenGraph(t *testing.T, circuit string, robdds bool) *xbar.BDDGraph {
	nw := bench.MustBuild(circuit)
	order := bdd.DFSOrder(nw)
	if robdds {
		singles, err := bdd.BuildSeparate(nw, order, 0)
		if err != nil {
			t.Fatalf("%s: %v", circuit, err)
		}
		bg, err := xbar.FromSeparate(singles, nw.InputNames())
		if err != nil {
			t.Fatalf("%s: %v", circuit, err)
		}
		return bg
	}
	m, roots, err := bdd.BuildNetwork(nw, order, 0)
	if err != nil {
		t.Fatalf("%s: %v", circuit, err)
	}
	bg, err := xbar.FromBDD(m, roots, nw.OutputNames)
	if err != nil {
		t.Fatalf("%s: %v", circuit, err)
	}
	return bg
}

// fmtMapped is one golden verdict: the sha256 of the design's JSON, or
// "refused".
func fmtMapped(t *testing.T, d json.Marshaler, err error) string {
	if err != nil {
		return "refused"
	}
	b, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256(b))
}

func mapGoldenReport(t *testing.T) string {
	ctx := context.Background()
	lopts := labeling.Options{Gamma: Options{}.gamma(), Method: labeling.MethodHeuristic}
	var out strings.Builder
	for _, c := range mapGoldenCircuits {
		for _, robdds := range []bool{false, true} {
			mode := "sbdd"
			if robdds {
				mode = "robdd"
			}
			bg := mapGoldenGraph(t, c, robdds)
			for _, align := range []bool{true, false} {
				tag := "aligned"
				if !align {
					tag = "unaligned"
				}
				sol, err := labeling.SolveContext(ctx, bg.Problem(align), lopts)
				if err != nil {
					t.Fatalf("%s %s: %v", c, mode, err)
				}
				d, err := xbar.Map(bg, sol.Labels)
				mapped := fmtMapped(t, d, err)
				fmt.Fprintf(&out, "%s %s %s map: %s\n", c, mode, tag, mapped)
				for k := 2; k <= 4; k++ {
					ks, err := labeling.SolveK(ctx, bg.Problem(align), k, lopts)
					if err != nil {
						t.Fatalf("%s %s K=%d: %v", c, mode, k, err)
					}
					d3, err := xbar3d.Map3D(bg, ks)
					mapped3 := fmtMapped(t, d3, err)
					if k == 2 {
						if mapped3 != mapped {
							t.Errorf("%s %s %s: map3d K=2 %s differs from map %s", c, mode, tag, mapped3, mapped)
						}
						continue
					}
					fmt.Fprintf(&out, "%s %s %s map3d K=%d: %s\n", c, mode, tag, k, mapped3)
				}
			}
		}
	}
	for _, c := range mapGoldenBig {
		bg := mapGoldenGraph(t, c, false)
		sol, err := labeling.SolveContext(ctx, bg.Problem(true), lopts)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		d, err := xbar.Map(bg, sol.Labels)
		mapped := fmtMapped(t, d, err)
		fmt.Fprintf(&out, "%s sbdd aligned map: %s\n", c, mapped)
		for k := 2; k <= 3; k++ {
			ks, err := labeling.SolveK(ctx, bg.Problem(true), k, lopts)
			if err != nil {
				t.Fatalf("%s K=%d: %v", c, k, err)
			}
			d3, err := xbar3d.Map3D(bg, ks)
			mapped3 := fmtMapped(t, d3, err)
			if k == 2 {
				if mapped3 != mapped {
					t.Errorf("%s sbdd aligned: map3d K=2 %s differs from map %s", c, mapped3, mapped)
				}
				continue
			}
			fmt.Fprintf(&out, "%s sbdd aligned map3d K=%d: %s\n", c, k, mapped3)
		}
	}
	return out.String()
}

func TestMapGolden(t *testing.T) {
	got := mapGoldenReport(t)
	want, err := os.ReadFile(mapGoldenFile)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(mapGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; review and commit it", mapGoldenFile)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs:\n got: %s\nwant: %s", mapGoldenFile, i+1, g, w)
		}
	}
}

// TestMapAllocatesPerDevice maps c1355's heuristic labeling with
// xbar.Map and bounds the bytes allocated, a work-unit verdict rather
// than a wall-clock one. The design has 21,275 devices (one per edge,
// one per VH stitch) on a 5,500 x 5,391 array. With a dense Entry grid,
// Map allocated 237.9 MB; with sparse planes it allocates 3.5 MB (go1.24,
// linux/amd64).
func TestMapAllocatesPerDevice(t *testing.T) {
	bg := mapGoldenGraph(t, "c1355", false)
	lopts := labeling.Options{Gamma: Options{}.gamma(), Method: labeling.MethodHeuristic}
	sol, err := labeling.SolveContext(context.Background(), bg.Problem(true), lopts)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := xbar.Map(bg, sol.Labels)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("c1355: %dx%d design, %d devices, %d nodes, %d edges: Map allocated %d bytes",
		d.Rows, d.Cols, d.Planes[0].Len(), bg.G.N(), bg.G.M(), got)
	if got > 32<<20 {
		t.Fatalf("mapping c1355 allocated %d bytes; the bound is 32 MB", got)
	}
}
