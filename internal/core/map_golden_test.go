package core

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"compact/internal/bdd"
	"compact/internal/bench"
	"compact/internal/labeling"
	"compact/internal/xbar"
	"compact/internal/xbar3d"
)

// The golden mappings pin the crossbar mapper to the wire format: xbar.Map
// and xbar3d.Map3D at K ∈ {2, 3, 4} on heuristic labelings of 14 bundled
// circuits, in SBDD and per-output ROBDD mode, each design recorded as the
// sha256 of its JSON encoding. The same labelings with alignment off pin
// the refusal verdicts (a refusal's wording is not pinned). A rewrite of the
// mapper has to reproduce testdata/map_golden.txt byte for byte. To
// regenerate after an intended change, delete the file and run the test
// once: it writes the file and fails, asking for review.
//
// arbiter, c1355 and c499 are left out: their heuristic synthesis alone
// takes 0.2 to 0.6 s each (2-vCPU host), and this test labels and maps
// each circuit sixteen ways.

const mapGoldenFile = "testdata/map_golden.txt"

var mapGoldenCircuits = []string{
	"ctrl", "cavlc", "int2float", "dec", "router", "i2c", "priority",
	"c432", "c880", "c1908", "c2670", "c3540", "c5315", "c7552",
}

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
				fmt.Fprintf(&out, "%s %s %s map: %s\n", c, mode, tag, fmtMapped(t, d, err))
				for k := 2; k <= 4; k++ {
					ks, err := labeling.SolveK(ctx, bg.Problem(align), k, lopts)
					if err != nil {
						t.Fatalf("%s %s K=%d: %v", c, mode, k, err)
					}
					d3, err := xbar3d.Map3D(bg, ks)
					fmt.Fprintf(&out, "%s %s %s map3d K=%d: %s\n", c, mode, tag, k, fmtMapped(t, d3, err))
				}
			}
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
