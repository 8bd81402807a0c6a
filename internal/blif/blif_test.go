package blif

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"compact/internal/bench"
	"compact/internal/logic"
)

const sampleBLIF = `
# f = (a & b) | c  -- the paper's Fig. 2 running example
.model fig2
.inputs a b c
.outputs f
.names a b t1
11 1
.names t1 c f
1- 1
-1 1
.end
`

func TestParseFig2(t *testing.T) {
	n, err := Parse(strings.NewReader(sampleBLIF))
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "fig2" {
		t.Errorf("model name = %q", n.Name)
	}
	if n.NumInputs() != 3 || n.NumOutputs() != 1 {
		t.Fatalf("I/O = %d/%d", n.NumInputs(), n.NumOutputs())
	}
	for v := 0; v < 8; v++ {
		a, b, c := v&1 != 0, v&2 != 0, v&4 != 0
		got := n.Eval([]bool{a, b, c})[0]
		want := (a && b) || c
		if got != want {
			t.Errorf("f(%v,%v,%v) = %v, want %v", a, b, c, got, want)
		}
	}
}

func TestParseOffsetCover(t *testing.T) {
	// g defined by its off-set: g=0 iff a=1,b=1 => g = !(a&b) = NAND.
	src := `
.model offset
.inputs a b
.outputs g
.names a b g
11 0
.end
`
	n, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		a, b := v&1 != 0, v&2 != 0
		if got, want := n.Eval([]bool{a, b})[0], !(a && b); got != want {
			t.Errorf("g(%v,%v) = %v, want %v", a, b, got, want)
		}
	}
}

func TestParseConstants(t *testing.T) {
	src := `
.model consts
.inputs a
.outputs one zero pass
.names one
1
.names zero
.names a pass
1 1
.end
`
	n, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []bool{false, true} {
		out := n.Eval([]bool{a})
		if !out[0] || out[1] || out[2] != a {
			t.Errorf("a=%v: out=%v", a, out)
		}
	}
}

func TestParseOutOfOrderBlocks(t *testing.T) {
	src := `
.model ooo
.inputs a b
.outputs f
.names t2 f
0 1
.names a b t2
10 1
01 1
.end
`
	n, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// f = !(a xor b) = xnor
	for v := 0; v < 4; v++ {
		a, b := v&1 != 0, v&2 != 0
		if got, want := n.Eval([]bool{a, b})[0], a == b; got != want {
			t.Errorf("f(%v,%v)=%v want %v", a, b, got, want)
		}
	}
}

func TestParseLineContinuation(t *testing.T) {
	src := ".model lc\n.inputs a \\\nb\n.outputs f\n.names a b f\n11 1\n.end\n"
	n, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n.NumInputs() != 2 {
		t.Fatalf("inputs = %d, want 2", n.NumInputs())
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"latch":       ".model m\n.inputs a\n.outputs q\n.latch a q re clk 0\n.end",
		"cycle":       ".model m\n.inputs a\n.outputs f\n.names f g\n1 1\n.names g f\n1 1\n.end",
		"undefined":   ".model m\n.inputs a\n.outputs f\n.names nothere f\n1 1\n.end",
		"bad cube":    ".model m\n.inputs a\n.outputs f\n.names a f\n2 1\n.end",
		"wrong width": ".model m\n.inputs a b\n.outputs f\n.names a b f\n1 1\n.end",
		"duplicate":   ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.names a f\n0 1\n.end",
		"stray cube":  ".model m\n.inputs a\n.outputs f\n11 1\n.end",
		"empty":       "",
	}
	for name, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error, got none", name)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := randomNetwork(rng, 5, 25)
		var buf bytes.Buffer
		if err := Write(&buf, n); err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}
		n2, err := Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: reparse: %v\n%s", trial, err, buf.String())
		}
		if n2.NumInputs() != n.NumInputs() || n2.NumOutputs() != n.NumOutputs() {
			t.Fatalf("trial %d: I/O mismatch", trial)
		}
		for v := 0; v < 1<<5; v++ {
			in := make([]bool, 5)
			for i := range in {
				in[i] = v&(1<<i) != 0
			}
			a, b := n.Eval(in), n2.Eval(in)
			for o := range a {
				if a[o] != b[o] {
					t.Fatalf("trial %d: output %d differs on %v\n%s", trial, o, in, buf.String())
				}
			}
		}
	}
}

func TestWriteOutputAliases(t *testing.T) {
	// Output directly tied to an input, and two outputs sharing one gate.
	b := logic.NewBuilder("alias")
	a, c := b.Input("a"), b.Input("c")
	g := b.And(a, c)
	b.Output("f1", g)
	b.Output("f2", g)
	b.Output("athru", a)
	n := b.Build()
	var buf bytes.Buffer
	if err := Write(&buf, n); err != nil {
		t.Fatal(err)
	}
	n2, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	for v := 0; v < 4; v++ {
		in := []bool{v&1 != 0, v&2 != 0}
		w1, w2 := n.Eval(in), n2.Eval(in)
		for o := range w1 {
			if w1[o] != w2[o] {
				t.Fatalf("output %d differs on %v\n%s", o, in, buf.String())
			}
		}
	}
}

// randomNetwork mirrors the helper in package logic (not exported there).
func randomNetwork(rng *rand.Rand, nIn, nGates int) *logic.Network {
	b := logic.NewBuilder("rand")
	var pool []int
	for i := 0; i < nIn; i++ {
		pool = append(pool, b.Input(string(rune('a'+i))))
	}
	for g := 0; g < nGates; g++ {
		pick := func() int { return pool[rng.Intn(len(pool))] }
		var id int
		switch rng.Intn(7) {
		case 0:
			id = b.And(pick(), pick())
		case 1:
			id = b.Or(pick(), pick(), pick())
		case 2:
			id = b.Not(pick())
		case 3:
			id = b.Xor(pick(), pick())
		case 4:
			id = b.Nand(pick(), pick())
		case 5:
			id = b.Nor(pick(), pick())
		default:
			id = b.Mux(pick(), pick(), pick())
		}
		pool = append(pool, id)
	}
	b.Output("f", pool[len(pool)-1])
	b.Output("g", pool[len(pool)-2])
	return b.Build()
}

func TestParseLongLine(t *testing.T) {
	long := ".inputs a b c # " + strings.Repeat("x", 2<<20) + "\n"
	nw, err := Parse(strings.NewReader(strings.Replace(sampleBLIF, ".inputs a b c\n", long, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if nw.NumInputs() != 3 {
		t.Errorf("inputs = %d, want 3", nw.NumInputs())
	}
}

// TestParseAllocs keeps the per-call scanner buffer proportional to the
// input: parsing ctrl's few-KiB BLIF must allocate well under 1 MiB.
func TestParseAllocs(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, bench.MustBuild("ctrl")); err != nil {
		t.Fatal(err)
	}
	text := buf.Bytes()
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Parse(bytes.NewReader(text)); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got > 256<<10 {
		t.Errorf("Parse(ctrl, %d bytes) allocates %d bytes per call, want at most 256 KiB", len(text), got)
	}
}
