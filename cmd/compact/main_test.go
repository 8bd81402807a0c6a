package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"compact/internal/bench"
	"compact/internal/blif"
	"compact/internal/core"
	"compact/internal/defect"
	"compact/internal/labeling"
	"compact/internal/parse"
	"compact/internal/spice"
	"compact/internal/xbar"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunBLIF(t *testing.T) {
	path := writeTemp(t, "fig2.blif", `
.model fig2
.inputs a b c
.outputs f
.names a b t
11 1
.names t c f
1- 1
-1 1
.end
`)
	dot := filepath.Join(t.TempDir(), "out.dot")
	svg := filepath.Join(t.TempDir(), "out.svg")
	cfg := cliConfig{
		gamma: 0.5, method: "mip", timeLimit: 10 * time.Second,
		render: true, dotPath: dot, svgPath: svg,
		verifyN: 100, runSpice: true, formal: true,
	}
	if err := run(context.Background(), path, cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph") {
		t.Errorf("dot output missing digraph:\n%s", data)
	}
}

func TestRunPLA(t *testing.T) {
	path := writeTemp(t, "and.pla", ".i 2\n.o 1\n11 1\n.e\n")
	cfg := cliConfig{gamma: 1, method: "portfolio", timeLimit: 10 * time.Second, verifyN: 10}
	if err := run(context.Background(), path, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunVerilog(t *testing.T) {
	path := writeTemp(t, "m.v", `
module m (a, b, f);
  input a, b; output f;
  assign f = a ^ b;
endmodule
`)
	cfg := cliConfig{gamma: 0.5, method: "heuristic", robdds: true, timeLimit: 10 * time.Second, verifyN: 10}
	if err := run(context.Background(), path, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunDefectFlags(t *testing.T) {
	blif := writeTemp(t, "m.blif", `
.model m
.inputs a b c
.outputs f
.names a b t
11 1
.names t c f
1- 1
-1 1
.end
`)
	// Generated defect map: defect-aware placement with formal re-check.
	cfg := cliConfig{
		gamma: 0.5, method: "heuristic", timeLimit: 10 * time.Second,
		verifyN: 10, defectRate: 0.02, defectSeed: 42,
	}
	if err := run(context.Background(), blif, cfg); err != nil {
		var up *xbar.Unplaceable
		if !errors.As(err, &up) {
			t.Fatalf("defect-rate run failed untypedly: %v", err)
		}
	}

	// Explicit defect map file, too small for the design: the typed
	// unplaceable verdict must surface as the CLI error.
	tiny := writeTemp(t, "tiny.json", `{"v":1,"rows":1,"cols":1,"cells":[]}`)
	cfg = cliConfig{gamma: 0.5, method: "heuristic", timeLimit: 10 * time.Second, defectsMap: tiny}
	err := run(context.Background(), blif, cfg)
	var up *xbar.Unplaceable
	if err == nil || !errors.As(err, &up) {
		t.Fatalf("tiny defect map: want *xbar.Unplaceable, got %v", err)
	}

	// Malformed defect map files are rejected with a parse error.
	bad := writeTemp(t, "bad.json", `{"v":99}`)
	cfg = cliConfig{gamma: 0.5, method: "heuristic", timeLimit: 10 * time.Second, defectsMap: bad}
	if err := run(context.Background(), blif, cfg); err == nil || !strings.Contains(err.Error(), "wire version") {
		t.Fatalf("bad defect map accepted: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	base := cliConfig{gamma: 0.5, method: "auto", timeLimit: time.Second}
	if err := run(context.Background(), "/does/not/exist.blif", base); err == nil {
		t.Error("missing file accepted")
	}
	bad := writeTemp(t, "x.txt", "hello")
	if err := run(context.Background(), bad, base); err == nil {
		t.Error("unknown extension accepted")
	}
	blif := writeTemp(t, "m.blif", ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.end\n")
	cfg := base
	cfg.method = "bogus"
	if err := run(context.Background(), blif, cfg); err == nil {
		t.Error("unknown method accepted")
	}
	cfg = base
	cfg.method = "mip"
	cfg.robdds = true
	cfg.dotPath = filepath.Join(t.TempDir(), "x.dot")
	if err := run(context.Background(), blif, cfg); err == nil {
		t.Error("-dot with -robdds accepted")
	}
}

// TestRunFormalROBDDs pins that -formal proves per-output ROBDD designs
// too: their literals index network inputs, as SBDD designs' do.
func TestRunFormalROBDDs(t *testing.T) {
	var buf strings.Builder
	if err := blif.Write(&buf, bench.MustBuild("ctrl")); err != nil {
		t.Fatal(err)
	}
	path := writeTemp(t, "ctrl.blif", buf.String())
	cfg := cliConfig{gamma: 0.5, method: "heuristic", robdds: true, timeLimit: 10 * time.Second, formal: true}
	out, err := captureStdout(t, func() error { return run(context.Background(), path, cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "formal verification: PROVEN") {
		t.Errorf("-robdds -formal did not prove:\n%s", out)
	}
}

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	type result struct {
		out []byte
		err error
	}
	read := make(chan result)
	go func() {
		out, err := io.ReadAll(r)
		read <- result{out, err}
	}()
	ferr := f()
	os.Stdout = stdout
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := <-read
	if got.err != nil {
		t.Fatal(got.err)
	}
	return string(got.out), ferr
}

// TestRunSpicePlaced pins that -spice on a defect-placed design simulates
// the physical array the design was placed on, not a clean one: stuck-ON
// devices down a spare bitline tie every used wordline to it, a sneak
// path the clean array does not have.
func TestRunSpicePlaced(t *testing.T) {
	blif := writeTemp(t, "fig2.blif", `
.model fig2
.inputs a b c
.outputs f
.names a b t
11 1
.names t c f
1- 1
-1 1
.end
`)
	dm, err := defect.New(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		if err := dm.Set(r, 3, defect.StuckOn); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := json.Marshal(dm)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cliConfig{
		gamma: 0.5, method: "heuristic", timeLimit: 10 * time.Second,
		defectsMap: writeTemp(t, "spare.json", string(buf)), runSpice: true,
	}
	out, err := captureStdout(t, func() error { return run(context.Background(), blif, cfg) })
	if err != nil {
		t.Fatal(err)
	}
	var got string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "spice-lite:") {
			got = line
		}
	}

	// The same synthesis, simulated on the placed array and on a clean one.
	nw, err := parse.ParseFile(blif)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SynthesizeContext(context.Background(), nw, core.Options{
		Gamma: 0.5, GammaSet: true, Method: labeling.MethodHeuristic, TimeLimit: cfg.timeLimit, Defects: dm,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement == nil {
		t.Fatal("no placement on the defect map")
	}
	line := func(env spice.Env) string {
		rep, err := spice.MarginContext(context.Background(), res.Design, nw.Eval, nw.NumInputs(), 10, 200, env, 1)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("spice-lite: minOn=%.4gV maxOff=%.4gV separable=%v (%d vectors)",
			rep.MinOn, rep.MaxOff, rep.Separable, rep.Checked)
	}
	placed := line(spice.Env{Model: spice.Default(), Defects: res.Defects, Placement: res.Placement})
	clean := line(spice.Env{Model: spice.Default()})
	if placed == clean {
		t.Fatalf("the spare-line bridges do not move the margin (%s); the test has lost its power", clean)
	}
	if got != placed {
		t.Errorf("-spice reported\n  %s\nwant the placed array's\n  %s\n(clean array: %s)", got, placed, clean)
	}
}

// TestRunSpiceLayeredPlaced pins that -spice on a defect-placed K-layer
// stack reports the margin of the placed physical stack: the printed
// line must equal MarginContext on the result's own defect maps and
// placement.
func TestRunSpiceLayeredPlaced(t *testing.T) {
	var buf strings.Builder
	nw := bench.MustBuild("ctrl")
	if err := blif.Write(&buf, nw); err != nil {
		t.Fatal(err)
	}
	path := writeTemp(t, "ctrl.blif", buf.String())
	cfg := cliConfig{gamma: 0.5, method: "heuristic", timeLimit: 10 * time.Second, layers: 3,
		defectRate: 0.001, defectSeed: 3, runSpice: true}
	out, err := captureStdout(t, func() error { return run(context.Background(), path, cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "placement: engine=") {
		t.Fatalf("want a placed stack, got:\n%s", out)
	}
	var got string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "spice-lite:") {
			got = line
		}
	}

	res, err := core.SynthesizeContext(context.Background(), nw, core.Options{
		Gamma: 0.5, GammaSet: true, Method: labeling.MethodHeuristic, TimeLimit: cfg.timeLimit,
		Layers: 3, DefectRate: cfg.defectRate, DefectSeed: cfg.defectSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement == nil || len(res.Defects) != 2 {
		t.Fatalf("no placement on two per-plane maps: %v, %d maps", res.Placement, len(res.Defects))
	}
	env := spice.Env{Model: spice.Default(), Defects: res.Defects, Placement: res.Placement}
	rep, err := spice.MarginContext(context.Background(), res.Design, nw.Eval, nw.NumInputs(), 10, 200, env, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("spice-lite: minOn=%.4gV maxOff=%.4gV separable=%v (%d vectors)",
		rep.MinOn, rep.MaxOff, rep.Separable, rep.Checked)
	if got != want {
		t.Errorf("-spice reported\n  %s\nwant the placed stack's\n  %s", got, want)
	}
}

// TestRunReportsEnginesEveryK pins one report for every K: a portfolio
// run lists each raced engine under the labeling line, on a 2D crossbar
// (heuristic, oct, mip) and on a 3-layer stack (kfold, kmip) alike, and
// marks exactly one winner.
func TestRunReportsEnginesEveryK(t *testing.T) {
	var buf strings.Builder
	if err := blif.Write(&buf, bench.MustBuild("ctrl")); err != nil {
		t.Fatal(err)
	}
	path := writeTemp(t, "ctrl.blif", buf.String())
	for _, tc := range []struct {
		layers  int
		label   string
		engines []string
		shape   string
	}{
		{2, "labeling: method=portfolio(", []string{"heuristic", "oct", "mip"}, "crossbar: "},
		{3, "(K=3 coloring)", []string{"kfold", "kmip"}, "stack: 3 wire layers"},
	} {
		cfg := cliConfig{gamma: 0.5, method: "portfolio", timeLimit: 500 * time.Millisecond, layers: tc.layers}
		out, err := captureStdout(t, func() error { return run(context.Background(), path, cfg) })
		if err != nil {
			t.Fatalf("K=%d: %v", tc.layers, err)
		}
		lines := strings.Split(out, "\n")
		at := -1
		for i, l := range lines {
			if strings.HasPrefix(l, "labeling: ") {
				at = i
			}
		}
		if at < 0 || !strings.Contains(lines[at], tc.label) || len(lines) < at+len(tc.engines)+2 {
			t.Fatalf("K=%d: no %q labeling line followed by the engines, got:\n%s", tc.layers, tc.label, out)
		}
		winners := 0
		for i, name := range tc.engines {
			f := strings.Fields(lines[at+1+i])
			if len(f) > 0 && f[0] == "*" {
				winners++
				f = f[1:]
			}
			if len(f) < 2 || f[0] != "engine" || f[1] != name {
				t.Fatalf("K=%d: engine line %d is %q, want engine %s", tc.layers, i, lines[at+1+i], name)
			}
		}
		if winners != 1 {
			t.Fatalf("K=%d: %d winners marked, want 1:\n%s", tc.layers, winners, out)
		}
		if next := lines[at+1+len(tc.engines)]; !strings.HasPrefix(next, tc.shape) {
			t.Fatalf("K=%d: engines followed by %q, want %q", tc.layers, next, tc.shape)
		}
	}
}
