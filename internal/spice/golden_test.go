package spice

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compact/internal/defect"
	"compact/internal/xbar"
	"compact/internal/xbar3d"
)

// The golden reports pin every simulation entry point to the float bit:
// voltages, margin sweeps and Monte Carlo reports (critical cells
// included) on committed EPFL designs — clean 2D arrays, 2D designs placed
// on defective arrays with spare lines (stuck-ON bridges and used×used
// overrides), K=3/K=4 stacks, and one design whose solve spans several
// tiles of the dense kernels on both sides. A rewrite of the nodal
// assembly, the margin sweep, the trial pool or the blame has to reproduce
// testdata/golden.txt byte for byte. The file pins both kernel sets of
// linalg.go: the test runs whichever this CPU selects, AVX2 or Go, and
// FuzzKernelsVsGo holds the two to the same bits, so the per-entry
// summation order of every dense kernel is part of this contract. To
// regenerate after an intended change, delete the file and run the test
// once: it writes the file and fails, asking for review. A change of the
// solve's arithmetic moves float bits only: before committing, check that
// every discrete field of the new file (separability, trial and failure
// counts, yield, critical cells, error strings) is unchanged and every
// float lies within 1e-9·(1+|v|) of the old one.

const goldenFile = "testdata/golden.txt"

func goldenLoad(t *testing.T, name string, v any) {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("testdata", "golden", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, v); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// bits renders a float readably and exactly.
func bits(x float64) string { return fmt.Sprintf("%.6g:%x", x, math.Float64bits(x)) }

func bitsList(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = bits(x)
	}
	return strings.Join(s, " ")
}

// goldenVectors draws n seeded assignments over nVars inputs.
func goldenVectors(nVars, n int) [][]bool {
	state := uint64(0x601d)
	vecs := make([][]bool, n)
	for i := range vecs {
		vecs[i] = make([]bool, nVars)
		for j := range vecs[i] {
			vecs[i][j] = splitmix64(&state)&1 != 0
		}
	}
	return vecs
}

func bitString(in []bool) string {
	b := make([]byte, len(in))
	for i, x := range in {
		b[i] = '0'
		if x {
			b[i] = '1'
		}
	}
	return string(b)
}

func fmtMargin(rep MarginReport, err error) string {
	if err != nil {
		return "margin error: " + err.Error()
	}
	return fmt.Sprintf("margin checked=%d separable=%v min_on=%s max_off=%s",
		rep.Checked, rep.Separable, bits(rep.MinOn), bits(rep.MaxOff))
}

func fmtMonteCarlo(rep MonteCarloReport, err error) string {
	if err != nil {
		return "montecarlo error: " + err.Error()
	}
	var crit []string
	for _, c := range rep.Critical {
		crit = append(crit, fmt.Sprintf("%d/%d/%d:%d", c.Layer, c.Row, c.Col, c.Flips))
	}
	return fmt.Sprintf("montecarlo trials=%d/%d vectors=%d exhaustive=%v fail=%d min_on=%s max_off=%s margin=%s yield=%s truncated=%v critical=[%s]",
		rep.Trials, rep.RequestedTrials, rep.Vectors, rep.Exhaustive, rep.FailTrials,
		bits(rep.WorstMinOn), bits(rep.WorstMaxOff), bits(rep.WorstMargin), bits(rep.Yield),
		rep.Truncated, strings.Join(crit, " "))
}

// Shared golden settings: a moderate spread on the high-contrast model,
// and a near-contrast-free model under a huge spread whose failing trials
// fill the critical-cell lists.
var (
	goldenMC     = MonteCarloOptions{Trials: 4, Vectors: 6, Seed: 7}
	goldenSpread = Variation{SigmaOn: 0.05, SigmaOff: 0.05}
	goldenHighMC = MonteCarloOptions{Trials: 8, Vectors: 8, Seed: 3}
	goldenHighV  = Variation{SigmaOn: 1.0, SigmaOff: 1.0}
)

func lowContrast() DeviceModel {
	m := Default()
	m.ROff = 3 * m.ROn
	return m
}

func goldenReport(t *testing.T) string {
	ctx := context.Background()
	var out bytes.Buffer
	line := func(format string, args ...any) { fmt.Fprintf(&out, format+"\n", args...) }
	critical := func(name string, rep MonteCarloReport, err error) {
		if err == nil && len(rep.Critical) == 0 {
			t.Errorf("%s: high-spread run found no critical cells", name)
		}
	}

	designs := map[string]*xbar.Design{}
	for _, name := range []string{"ctrl", "cavlc", "int2float", "dec"} {
		d := new(xbar.Design)
		goldenLoad(t, name, d)
		designs[name] = d
	}
	for _, name := range []string{"ctrl", "cavlc", "int2float"} {
		d := designs[name]
		nVars := len(d.VarNames)
		line("== 2d %s %dx%d", name, d.Rows, d.Cols)
		for _, in := range goldenVectors(nVars, 3) {
			v, err := Simulate(d, in, Default())
			line("simulate %s err=%v v=[%s]", bitString(in), err, bitsList(v))
		}
		line("%s", fmtMargin(MarginContext(ctx, d, d.Eval, nVars, 7, 12, Env{Model: Default()}, 1)))
		line("%s", fmtMonteCarlo(MonteCarloContext(ctx, d, d.Eval, nVars, Env{Model: HighContrast()}, goldenSpread, goldenMC)))
	}
	{
		d := designs["ctrl"]
		rep, err := MonteCarloContext(ctx, d, d.Eval, len(d.VarNames), Env{Model: lowContrast()}, goldenHighV, goldenHighMC)
		critical("2d ctrl", rep, err)
		line("== 2d ctrl high spread")
		line("%s", fmtMonteCarlo(rep, err))
	}

	placed := []string{"ctrl_placed1", "ctrl_placed2", "ctrl_placed3", "ctrl_placed4",
		"cavlc_placed1", "cavlc_placed2", "cavlc_placed3", "int2float_placed1", "int2float_placed2"}
	for i, name := range placed {
		var pc struct {
			Defects *defect.Map `json:"defects"`
			RowPerm []int       `json:"row_perm"`
			ColPerm []int       `json:"col_perm"`
		}
		goldenLoad(t, name, &pc)
		d := designs[strings.SplitN(name, "_", 2)[0]]
		nVars := len(d.VarNames)
		env := Env{Model: Default(), Defects: []*defect.Map{pc.Defects}, Placement: &xbar.Placement{Perms: [][]int{pc.RowPerm, pc.ColPerm}}}
		line("== 2d %s on %dx%d with %d faults", name, pc.Defects.Rows(), pc.Defects.Cols(), pc.Defects.Len())
		for _, in := range goldenVectors(nVars, 3) {
			v, err := SimulateEnv(d, in, env)
			line("simulate %s err=%v v=[%s]", bitString(in), err, bitsList(v))
		}
		res, err := SampleResistances(pc.Defects.Rows(), pc.Defects.Cols(), Default(), goldenSpread, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		v, err := simulateRes(d, goldenVectors(nVars, 1)[0], env, []*ResistanceMap{res})
		line("simulate-res err=%v v=[%s]", err, bitsList(v))
		line("%s", fmtMargin(MarginContext(ctx, d, d.Eval, nVars, 7, 12, env, 1)))
		hc := env
		hc.Model = HighContrast()
		line("%s", fmtMonteCarlo(MonteCarloContext(ctx, d, d.Eval, nVars, hc, goldenSpread, goldenMC)))
		if i == 0 {
			lc := env
			lc.Model = lowContrast()
			rep, err := MonteCarloContext(ctx, d, d.Eval, nVars, lc, goldenHighV, goldenHighMC)
			critical(name, rep, err)
			line("montecarlo-high %s", fmtMonteCarlo(rep, err))
		}
	}

	for i, name := range []string{"ctrl_k3", "cavlc_k3", "int2float_k3", "ctrl_k4", "int2float_k4"} {
		d := new(xbar3d.Design3D)
		goldenLoad(t, name, d)
		nVars := len(d.VarNames)
		line("== 3d %s widths=%v", name, d.Widths)
		for _, in := range goldenVectors(nVars, 3) {
			v, err := Simulate(d, in, Default())
			line("simulate %s err=%v v=[%s]", bitString(in), err, bitsList(v))
		}
		line("%s", fmtMargin(MarginContext(ctx, d, d.Eval, nVars, 7, 12, Env{Model: Default()}, 1)))
		line("%s", fmtMonteCarlo(MonteCarloContext(ctx, d, d.Eval, nVars, Env{Model: HighContrast()}, goldenSpread, goldenMC)))
		if i == 0 {
			rep, err := MonteCarloContext(ctx, d, d.Eval, nVars, Env{Model: lowContrast()}, goldenHighV, goldenHighMC)
			critical(name, rep, err)
			line("montecarlo-high %s", fmtMonteCarlo(rep, err))
		}
	}

	d := designs["dec"]
	if min(d.Rows, d.Cols) <= tileJ || max(d.Rows, d.Cols) <= tileK {
		t.Fatalf("dec is %dx%d; the multi-tile case needs more than %d nodes on the kept side and %d on the eliminated one",
			d.Rows, d.Cols, tileJ, tileK)
	}
	line("== 2d dec %dx%d (multi-tile)", d.Rows, d.Cols)
	in := goldenVectors(len(d.VarNames), 1)[0]
	v, err := Simulate(d, in, Default())
	line("simulate %s err=%v v=[%s]", bitString(in), err, bitsList(v))
	return out.String()
}

// simulateRes is SimulateEnv with the per-plane device resistances res
// pinned for the one trial.
func simulateRes(d *xbar.Design, assignment []bool, env Env, res []*ResistanceMap) ([]float64, error) {
	nw, err := compile(d, env)
	if err != nil {
		return nil, err
	}
	sv := newSolver()
	nw.trial(sv, res)
	return nw.simulate(sv, assignment)
}

func TestGoldenReports(t *testing.T) {
	got := goldenReport(t)
	want, err := os.ReadFile(goldenFile)
	if os.IsNotExist(err) {
		if err := os.WriteFile(goldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; review and commit it", goldenFile)
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
			t.Fatalf("%s line %d differs:\n got: %s\nwant: %s", goldenFile, i+1, g, w)
		}
	}
}
