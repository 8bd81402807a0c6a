package labeling_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"compact/internal/labeling"
)

const mipModelGoldenFile = "testdata/mip_model.golden"

// mipModelReport hashes the Eq. 4 model, every variable and row in order
// with its bounds, coefficients, sense and right-hand side, for each case.
// The model includes the OCT rows (odd-cycle packing and the S >= n + k*
// floor), which are deterministic without a time limit on these circuits.
func mipModelReport(t *testing.T) string {
	var b strings.Builder
	for _, circuit := range []string{"ctrl", "cavlc", "dec", "int2float"} {
		bg := circuitGraph(t, circuit)
		n := bg.NumNodes()
		for _, gamma := range []float64{0.5, 1} {
			for _, align := range []bool{false, true} {
				for _, helpers := range []bool{false, true} {
					for _, caps := range []bool{false, true} {
						opts := labeling.Options{Method: labeling.MethodMIP, Gamma: gamma, UseEdgeHelpers: helpers}
						if caps {
							opts.MaxRows, opts.MaxCols = n-1, n/2+3
						}
						mod, err := labeling.MIPModel(context.Background(), bg.Problem(align), opts)
						if err != nil {
							t.Fatal(err)
						}
						h := sha256.New()
						if err := mod.WriteText(h); err != nil {
							t.Fatal(err)
						}
						fmt.Fprintf(&b, "%s gamma=%v align=%v helpers=%v caps=%v vars=%d rows=%d sha256=%x\n",
							circuit, gamma, align, helpers, caps, mod.NumVars(), mod.NumConstrs(), h.Sum(nil))
					}
				}
			}
		}
	}
	return b.String()
}

// TestMIPModelGolden pins the Eq. 4 model row for row, so a refactor of
// the MIP driver cannot move the branch & bound it feeds.
func TestMIPModelGolden(t *testing.T) {
	got := mipModelReport(t)
	want, err := os.ReadFile(mipModelGoldenFile)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(mipModelGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; review and commit it", mipModelGoldenFile)
	}
	if err != nil {
		t.Fatal(err)
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
			t.Fatalf("%s line %d differs:\n got: %s\nwant: %s", mipModelGoldenFile, i+1, g, w)
		}
	}
}

// eq4TestdataDir holds the Eq. 4 models of ctrl, cavlc and int2float
// (γ = 0.5, aligned SBDD, the pipeline's defaults) in Model.WriteText form
// for the ilp package's tests, which cannot build them: ilp sits below
// the BDD and labeling packages.
const eq4TestdataDir = "../ilp/testdata/eq4"

// TestEq4ModelTestdata keeps the ilp package's model files equal to what
// MethodMIP hands the branch & bound today. A missing file is written.
func TestEq4ModelTestdata(t *testing.T) {
	for _, circuit := range []string{"ctrl", "cavlc", "int2float"} {
		mod, err := labeling.MIPModel(context.Background(), circuitGraph(t, circuit).Problem(true),
			labeling.Options{Method: labeling.MethodMIP, Gamma: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := mod.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		path := eq4TestdataDir + "/" + circuit + ".txt"
		want, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			if err := os.MkdirAll(eq4TestdataDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Errorf("wrote %s; review and commit it", path)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if b.String() != string(want) {
			t.Errorf("%s is not the current %s Eq. 4 model; delete it and rerun to rewrite it", path, circuit)
		}
	}
}
