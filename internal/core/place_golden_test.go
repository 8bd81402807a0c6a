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

// The golden placements pin 2D placement to the permutation: every defect
// map the robust benchmark workload and TestDefectSuiteBenchmarks place,
// run through core's verified-repair loop in both modes (plain and
// MarginAware: engine, permutations and RepairAttempts) and through the
// placement stream the loop reads (its first four candidates, offering the
// exact stage while none has been yielded). A rewrite of the matcher, the
// ILP, the stream or the loop has to reproduce testdata/place_golden.txt
// byte for byte. To regenerate after an intended change, delete the file
// and run the test once: it writes the file and fails, asking for review.

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

func fmtPlacement(pl *xbar.Placement) string {
	return fmt.Sprintf("%s rows=%v cols=%v", pl.Engine, pl.Perms[0], pl.Perms[1])
}

func placeGoldenReport(t *testing.T) string {
	ctx := context.Background()
	cleans := map[string]*Result{}
	var out strings.Builder
	for _, pc := range placeGoldenCases() {
		clean := cleans[pc.circuit]
		if clean == nil {
			res, err := Synthesize(bench.MustBuild(pc.circuit), Options{Method: labeling.MethodHeuristic})
			if err != nil {
				t.Fatalf("%s: %v", pc.circuit, err)
			}
			clean = res
			cleans[pc.circuit] = res
		}
		d := clean.Design
		rows, cols := d.Rows, d.Cols
		if pc.spare {
			rows, cols = rows+(rows+3)/4, cols+(cols+3)/4
		}
		dm, err := defect.Generate(rows, cols, pc.rate, DefaultDefectOnFraction, pc.seed)
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		maps := []*defect.Map{dm}
		fmt.Fprintf(&out, "== %s %dx%d on %dx%d, %d faults\n", pc.name, d.Rows, d.Cols, rows, cols, dm.Len())
		for _, aware := range []bool{false, true} {
			r := &Result{Design: d, network: clean.network}
			opts := Options{Method: labeling.MethodHeuristic, DefectSeed: pc.seed, MarginAware: aware}.Canonical()
			mode := "plain"
			if aware {
				mode = "margin"
			}
			if err := r.placeWithRepair(ctx, maps, opts); err != nil {
				fmt.Fprintf(&out, "%s: err=%v\n", mode, err)
				continue
			}
			fmt.Fprintf(&out, "%s: %s attempts=%d\n", mode, fmtPlacement(r.Placement), r.RepairAttempts)
		}
		stream, err := xbar.NewPlacer(d.Stack(maps), pc.seed)
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		for i := 0; i < 4; i++ {
			pl, err := stream.Next(ctx, i == 0)
			if err != nil {
				fmt.Fprintf(&out, "stream: err=%v\n", err)
			}
			if pl == nil {
				break
			}
			fmt.Fprintf(&out, "candidate %d: %s\n", i, fmtPlacement(pl))
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
