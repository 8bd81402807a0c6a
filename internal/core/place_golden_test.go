package core

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"compact/internal/bench"
	"compact/internal/defect"
	"compact/internal/labeling"
	"compact/internal/xbar"
)

// The golden placements pin the 2D placement engine to the permutation:
// every defect map the robust benchmark workload and
// TestDefectSuiteBenchmarks place, searched the way the repair loop does
// (three attempt seeds, the last forced onto the exact engine) and the way
// the margin-aware loop does (PlaceCandidates, max 4). A rewrite of the
// matcher, the ILP or the candidate enumeration has to reproduce
// testdata/place_golden.txt byte for byte. To regenerate after an intended
// change, delete the file and run the test once: it writes the file and
// fails, asking for review.

const placeGoldenFile = "testdata/place_golden.txt"

// placeGoldenCase is one heuristic design and the map it is placed onto.
type placeGoldenCase struct {
	name    string
	circuit string
	// spare sizes the map at the clean design plus one spare line per four
	// used lines (the robust workload's spare maps); otherwise the map is
	// sized exactly to the design, as Options.DefectRate generates it.
	spare bool
	rate  float64
	seed  uint64
}

// placeGoldenCases lists the robust workload's 19 2D maps and
// TestDefectSuiteBenchmarks' 9 maps. None is left out: every exact stage
// on these maps skips its over-cap model before solving, so no line
// depends on the wall clock.
func placeGoldenCases() []placeGoldenCase {
	var cs []placeGoldenCase
	for _, c := range []string{"ctrl", "cavlc"} {
		for _, rate := range []float64{0.01, 0.02} {
			for seed := uint64(1); seed <= 3; seed++ {
				cs = append(cs, placeGoldenCase{fmt.Sprintf("%s/spare%.0f%%/s%d", c, rate*100, seed), c, true, rate, seed})
			}
		}
		for seed := uint64(1); seed <= 3; seed++ {
			cs = append(cs, placeGoldenCase{fmt.Sprintf("%s/exact1%%/s%d", c, seed), c, false, 0.01, seed})
		}
	}
	cs = append(cs, placeGoldenCase{"int2float/spare1%/s1", "int2float", true, 0.01, 1})
	for _, c := range []string{"ctrl", "cavlc", "int2float"} {
		for _, rate := range []float64{0.01, 0.05, 0.10} {
			cs = append(cs, placeGoldenCase{fmt.Sprintf("%s/exact%.0f%%/s42", c, rate*100), c, false, rate, 42})
		}
	}
	return cs
}

func fmtPlacement(pl *xbar.Placement, err error) string {
	if err != nil {
		return "err=" + err.Error()
	}
	return fmt.Sprintf("%s rows=%v cols=%v", pl.Engine, pl.Perms[0], pl.Perms[1])
}

func placeGoldenReport(t *testing.T) string {
	ctx := context.Background()
	designs := map[string]*xbar.Design{}
	var out strings.Builder
	for _, pc := range placeGoldenCases() {
		d := designs[pc.circuit]
		if d == nil {
			res, err := Synthesize(bench.MustBuild(pc.circuit), Options{Method: labeling.MethodHeuristic})
			if err != nil {
				t.Fatalf("%s: %v", pc.circuit, err)
			}
			d = res.Design
			designs[pc.circuit] = d
		}
		rows, cols := d.Rows, d.Cols
		if pc.spare {
			rows, cols = rows+(rows+3)/4, cols+(cols+3)/4
		}
		dm, err := defect.Generate(rows, cols, pc.rate, DefaultDefectOnFraction, pc.seed)
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		fmt.Fprintf(&out, "== %s %dx%d on %dx%d, %d faults\n", pc.name, d.Rows, d.Cols, rows, cols, dm.Len())
		for attempt := 0; attempt < DefaultRepairAttempts; attempt++ {
			opts := xbar.PlaceOptions{Seed: pc.seed + uint64(attempt)*0x9e3779b97f4a7c15}
			if attempt == DefaultRepairAttempts-1 {
				opts.Engine = xbar.PlaceILP
			}
			pl, err := xbar.PlaceContext(ctx, d, []*defect.Map{dm}, opts)
			fmt.Fprintf(&out, "place seed=%d engine=%s: %s\n", opts.Seed, opts.Engine, fmtPlacement(pl, err))
		}
		cands, err := xbar.PlaceCandidates(ctx, d, []*defect.Map{dm}, xbar.PlaceOptions{Seed: pc.seed}, 4)
		if err != nil {
			fmt.Fprintf(&out, "candidates: %s\n", fmtPlacement(nil, err))
		}
		for i, pl := range cands {
			fmt.Fprintf(&out, "candidate %d: %s\n", i, fmtPlacement(pl, nil))
		}
	}
	return out.String()
}

func TestPlaceGolden(t *testing.T) {
	got := placeGoldenReport(t)
	want, err := os.ReadFile(placeGoldenFile)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(placeGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; review and commit it", placeGoldenFile)
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
			t.Fatalf("%s line %d differs:\n got: %s\nwant: %s", placeGoldenFile, i+1, g, w)
		}
	}
}
