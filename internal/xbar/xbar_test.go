package xbar

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"compact/internal/bdd"
	"compact/internal/labeling"
	"compact/internal/logic"
)

// synth runs the full pipeline for a network with natural variable order:
// BDD -> graph -> labeling -> crossbar.
func synth(t *testing.T, nw *logic.Network, method labeling.Method, gamma float64, align bool) (*Design, *BDDGraph) {
	t.Helper()
	m, roots, err := bdd.BuildNetwork(nw, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := FromBDD(m, roots, nw.OutputNames)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := labeling.SolveContext(context.Background(), bg.Problem(align), labeling.Options{Method: method, Gamma: gamma})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Map(bg, sol.Labels)
	if err != nil {
		t.Fatal(err)
	}
	return d, bg
}

func fig2Network() *logic.Network {
	b := logic.NewBuilder("fig2")
	a, bb, c := b.Input("a"), b.Input("b"), b.Input("c")
	b.Output("f", b.Or(b.And(a, bb), c))
	return b.Build()
}

func TestFig2EndToEnd(t *testing.T) {
	nw := fig2Network()
	d, bg := synth(t, nw, labeling.MethodMIP, 0.5, true)
	// Graph: nodes a, b, c, 1 => n=4; edges: a->b, a->c(low), b->1, b->c?,
	// Let's not over-specify; check n and validity instead.
	if bg.NumNodes() != 4 {
		t.Errorf("graph nodes = %d, want 4", bg.NumNodes())
	}
	if bad := d.VerifyAgainst(nw.Eval, 3, 10, 0, 1); bad != nil {
		t.Errorf("mismatch on %v", bad)
	}
	st := d.Stats()
	if st.S != st.Rows+st.Cols || st.Area != st.Rows*st.Cols {
		t.Errorf("stats inconsistent: %+v", st)
	}
	if st.Delay != st.Rows+1 {
		t.Errorf("delay = %d, want rows+1", st.Delay)
	}
}

func TestPipelineRandomNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 12; trial++ {
		nw := randomNetwork(rng, 5, 18)
		for _, method := range []labeling.Method{labeling.MethodOCT, labeling.MethodMIP, labeling.MethodHeuristic} {
			d, _ := synth(t, nw, method, 0.5, true)
			if bad := d.VerifyAgainst(nw.Eval, 5, 10, 0, 1); bad != nil {
				t.Fatalf("trial %d method %v: mismatch on %v", trial, method, bad)
			}
		}
	}
}

func TestSemiperimeterIsNPlusK(t *testing.T) {
	// The central claim: S = n + k where k = #VH.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		nw := randomNetwork(rng, 5, 15)
		m, roots, err := bdd.BuildNetwork(nw, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		bg, err := FromBDD(m, roots, nw.OutputNames)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := labeling.SolveContext(context.Background(), bg.Problem(true), labeling.Options{Method: labeling.MethodMIP, Gamma: 1})
		if err != nil {
			t.Fatal(err)
		}
		k := 0
		for _, l := range sol.Labels {
			if l == labeling.VH {
				k++
			}
		}
		d, err := Map(bg, sol.Labels)
		if err != nil {
			t.Fatal(err)
		}
		st := d.Stats()
		// S = n + k, adjusted for the two degenerate extras: a dedicated
		// row for constant-0 outputs and the filler bitline when no node
		// is labeled V.
		wantRows := labeling.ComputeStats(sol.Labels).Rows
		for _, r := range bg.Roots {
			if r.Kind == RootConst0 {
				wantRows++
				break
			}
		}
		wantCols := labeling.ComputeStats(sol.Labels).Cols
		if wantCols == 0 {
			wantCols = 1
		}
		if st.Rows != wantRows || st.Cols != wantCols {
			t.Errorf("trial %d: dims %dx%d, want %dx%d", trial, st.Rows, st.Cols, wantRows, wantCols)
		}
		if wantRows+wantCols == bg.NumNodes()+k && st.S != bg.NumNodes()+k {
			t.Errorf("trial %d: S = %d, want n+k = %d+%d", trial, st.S, bg.NumNodes(), k)
		}
	}
}

func TestConstantOutputs(t *testing.T) {
	b := logic.NewBuilder("consts")
	a := b.Input("a")
	b.Output("one", b.Const1())
	b.Output("zero", b.Const0())
	b.Output("pass", a)
	nw := b.Build()
	d, _ := synth(t, nw, labeling.MethodMIP, 0.5, true)
	if bad := d.VerifyAgainst(nw.Eval, 1, 5, 0, 1); bad != nil {
		t.Errorf("mismatch on %v", bad)
	}
}

func TestAllConstantZero(t *testing.T) {
	b := logic.NewBuilder("allzero")
	b.Input("a")
	b.Output("z", b.Const0())
	nw := b.Build()
	d, _ := synth(t, nw, labeling.MethodOCT, 1, true)
	if bad := d.VerifyAgainst(nw.Eval, 1, 5, 0, 1); bad != nil {
		t.Errorf("mismatch on %v", bad)
	}
}

func TestSharedOutputRows(t *testing.T) {
	// Two identical outputs share one BDD root and thus one wordline.
	b := logic.NewBuilder("dup")
	x, y := b.Input("x"), b.Input("y")
	g := b.And(x, y)
	b.Output("f1", g)
	b.Output("f2", g)
	nw := b.Build()
	d, _ := synth(t, nw, labeling.MethodMIP, 0.5, true)
	if d.OutputRows[0] != d.OutputRows[1] {
		t.Errorf("identical outputs on different rows: %v", d.OutputRows)
	}
	if bad := d.VerifyAgainst(nw.Eval, 2, 5, 0, 1); bad != nil {
		t.Errorf("mismatch on %v", bad)
	}
}

func TestInputRowIsBottom(t *testing.T) {
	nw := fig2Network()
	d, _ := synth(t, nw, labeling.MethodMIP, 0.5, true)
	if d.InputRow != d.Rows-1 {
		t.Errorf("input row = %d, want bottom row %d", d.InputRow, d.Rows-1)
	}
	for _, r := range d.OutputRows {
		if r == d.InputRow {
			t.Errorf("output on input row for non-constant function")
		}
	}
}

func TestMapRejectsVRoot(t *testing.T) {
	// Labeling without alignment may put a root on a bitline; Map must
	// reject it. Construct explicitly: path 1 - u (root). Label 1=H, u=V.
	b := logic.NewBuilder("tiny")
	a := b.Input("a")
	b.Output("f", a)
	nw := b.Build()
	m, roots, err := bdd.BuildNetwork(nw, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := FromBDD(m, roots, nw.OutputNames)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]labeling.Label, bg.NumNodes())
	for i := range labels {
		labels[i] = labeling.V
	}
	labels[bg.TerminalID] = labeling.H
	if _, err := Map(bg, labels); err == nil {
		t.Error("V-labeled root accepted")
	}
}

func TestRenderAndEntryStrings(t *testing.T) {
	nw := fig2Network()
	d, _ := synth(t, nw, labeling.MethodMIP, 0.5, true)
	var buf bytes.Buffer
	if err := d.Render(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "<- Vin") || !strings.Contains(s, "-> f") {
		t.Errorf("render missing ports:\n%s", s)
	}
	e := Entry{Kind: Lit, Var: 0, Neg: true}
	if e.String() != "!x0" {
		t.Errorf("entry string = %q", e.String())
	}
	if (Entry{Kind: On}).String() != "1" || (Entry{Kind: Off}).String() != "0" {
		t.Error("constant entry strings wrong")
	}
}

func TestVerifyAgainstSampled(t *testing.T) {
	// Wide function forces the sampled path.
	b := logic.NewBuilder("wide")
	xs := b.Inputs("x", 20)
	b.Output("f", b.Or(xs...))
	nw := b.Build()
	d, _ := synth(t, nw, labeling.MethodOCT, 1, true)
	if bad := d.VerifyAgainst(nw.Eval, 20, 12, 500, 7); bad != nil {
		t.Errorf("mismatch on %v", bad)
	}
}

func TestStatsPowerCountsLiterals(t *testing.T) {
	nw := fig2Network()
	d, bg := synth(t, nw, labeling.MethodMIP, 1, true)
	st := d.Stats()
	if st.LitCells != bg.NumEdges() {
		t.Errorf("lit cells = %d, want edge count %d", st.LitCells, bg.NumEdges())
	}
	if st.Power != st.LitCells {
		t.Errorf("power = %d, want %d", st.Power, st.LitCells)
	}
}

// randomNetwork builds a random combinational network.
func randomNetwork(rng *rand.Rand, nIn, nGates int) *logic.Network {
	b := logic.NewBuilder("rand")
	var pool []int
	for i := 0; i < nIn; i++ {
		pool = append(pool, b.Input(string(rune('a'+i))))
	}
	for g := 0; g < nGates; g++ {
		pick := func() int { return pool[rng.Intn(len(pool))] }
		var id int
		switch rng.Intn(6) {
		case 0:
			id = b.And(pick(), pick())
		case 1:
			id = b.Or(pick(), pick())
		case 2:
			id = b.Not(pick())
		case 3:
			id = b.Xor(pick(), pick())
		case 4:
			id = b.Nand(pick(), pick())
		default:
			id = b.Mux(pick(), pick(), pick())
		}
		pool = append(pool, id)
	}
	b.Output("f", pool[len(pool)-1])
	b.Output("g", pool[len(pool)-2])
	return b.Build()
}

func TestWriteSVG(t *testing.T) {
	nw := fig2Network()
	d, _ := synth(t, nw, labeling.MethodMIP, 0.5, true)
	var buf bytes.Buffer
	if err := d.WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, frag := range []string{"<svg", "Vin", "circle", "</svg>"} {
		if !strings.Contains(s, frag) {
			t.Errorf("SVG missing %q", frag)
		}
	}
	// A literal with special characters must be escaped.
	d.Cells[0][0] = Entry{Kind: Lit, Var: 0}
	d.VarNames = []string{"a<b&c"}
	buf.Reset()
	if err := d.WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "a<b") {
		t.Error("unescaped '<' in SVG text")
	}
}
