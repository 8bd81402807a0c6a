package bench

import (
	"testing"

	"compact/internal/bdd"
)

func TestTable1IOCounts(t *testing.T) {
	// The paper's Table I I/O signature must hold exactly.
	for _, g := range All() {
		nw := g.Build()
		if err := nw.Validate(); err != nil {
			t.Errorf("%s: invalid network: %v", g.Name, err)
			continue
		}
		if nw.NumInputs() != g.Inputs || nw.NumOutputs() != g.Outputs {
			t.Errorf("%s: I/O = %d/%d, want %d/%d", g.Name, nw.NumInputs(), nw.NumOutputs(), g.Inputs, g.Outputs)
		}
	}
}

func TestRegistryLookups(t *testing.T) {
	if len(All()) != 17 {
		t.Errorf("%d benchmarks, want 17", len(All()))
	}
	if len(BySuite("iscas85")) != 9 || len(BySuite("epfl")) != 8 {
		t.Errorf("suite sizes wrong: %d/%d", len(BySuite("iscas85")), len(BySuite("epfl")))
	}
	if _, ok := ByName("dec"); !ok {
		t.Error("dec not found")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("bogus name found")
	}
	if len(Names()) != 17 {
		t.Error("Names() wrong length")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustBuild on bogus name did not panic")
		}
	}()
	MustBuild("nope")
}

func TestDecFunctional(t *testing.T) {
	nw := MustBuild("dec")
	in := make([]bool, 8)
	for v := 0; v < 256; v += 17 {
		for i := range in {
			in[i] = v&(1<<uint(i)) != 0
		}
		out := nw.Eval(in)
		for o, bit := range out {
			if bit != (o == v) {
				t.Fatalf("dec(%d): output %d = %v", v, o, bit)
			}
		}
	}
}

func TestPriorityFunctional(t *testing.T) {
	nw := MustBuild("priority")
	in := make([]bool, 128)
	// Single request at position p: index must read p, valid set.
	for _, p := range []int{0, 1, 17, 63, 127} {
		for i := range in {
			in[i] = i == p
		}
		out := nw.Eval(in)
		idx := 0
		for b := 0; b < 7; b++ {
			if out[b] {
				idx |= 1 << uint(b)
			}
		}
		if idx != p || !out[7] {
			t.Errorf("priority(req %d): idx=%d valid=%v", p, idx, out[7])
		}
	}
	// Two requests: lower index wins.
	for i := range in {
		in[i] = i == 9 || i == 90
	}
	out := nw.Eval(in)
	idx := 0
	for b := 0; b < 7; b++ {
		if out[b] {
			idx |= 1 << uint(b)
		}
	}
	if idx != 9 {
		t.Errorf("priority(9,90): idx=%d, want 9", idx)
	}
	// No requests: invalid.
	for i := range in {
		in[i] = false
	}
	if nw.Eval(in)[7] {
		t.Error("priority(none): valid set")
	}
}

func TestSECCorrectsSingleErrors(t *testing.T) {
	nw := MustBuild("c499")
	// Baseline: pick data, compute matching check bits by probing: with
	// en=0 the outputs pass data through; we instead verify the correction
	// property structurally: flipping data bit i with the check bits of
	// the clean word must restore the clean data.
	data := uint32(0xDEADBEEF)
	in := make([]bool, 41)
	for i := 0; i < 32; i++ {
		in[i] = data&(1<<uint(i)) != 0
	}
	// Find check bits: syndrome_j = chk_j XOR parity_j(d); choose chk so
	// syndrome = 0. parity_j(d) is what chk_j must equal. Probe with
	// chk = 0, en = 1: corrected = d ^ flip(pos=syndrome). Instead use
	// en=0 to read pass-through and compute parities in the test.
	posBits := 6
	chk := make([]bool, 8)
	for j := 0; j < 8; j++ {
		p := false
		for i := 0; i < 32; i++ {
			var member bool
			if j < posBits {
				member = (i+1)>>uint(j)&1 == 1
			} else if (j-posBits)%2 == 0 {
				member = true
			} else {
				member = i%2 == 0
			}
			if member && in[i] {
				p = !p
			}
		}
		chk[j] = p
	}
	for j := 0; j < 8; j++ {
		in[32+j] = chk[j]
	}
	in[40] = true // enable correction
	// Clean word: no correction.
	out := nw.Eval(in)
	for i := 0; i < 32; i++ {
		if out[i] != in[i] {
			t.Fatalf("clean word modified at bit %d", i)
		}
	}
	// Flip each data bit: decoder must restore it.
	for flip := 0; flip < 32; flip++ {
		in[flip] = !in[flip]
		out := nw.Eval(in)
		in[flip] = !in[flip]
		for i := 0; i < 32; i++ {
			if out[i] != in[i] {
				t.Fatalf("error at bit %d not corrected (bit %d wrong)", flip, i)
			}
		}
	}
}

func TestC499EqualsC1355(t *testing.T) {
	a, b := MustBuild("c499"), MustBuild("c1355")
	in := make([]bool, 41)
	rngState := uint64(1)
	for trial := 0; trial < 200; trial++ {
		for i := range in {
			rngState = rngState*6364136223846793005 + 1442695040888963407
			in[i] = rngState>>33&1 != 0
		}
		oa, ob := a.Eval(in), b.Eval(in)
		for i := range oa {
			if oa[i] != ob[i] {
				t.Fatalf("c499 and c1355 differ at output %d", i)
			}
		}
	}
}

func TestInt2FloatFunctional(t *testing.T) {
	nw := MustBuild("int2float")
	in := make([]bool, 11)
	cases := []struct {
		x        int
		sign     bool
		exp, man int
	}{
		{0, false, 0, 0},         // zero: no leading one
		{1, false, 0, 0},         // leading one at 0, no mantissa bits below
		{2, false, 1, 0},         // 10 -> exp 1
		{3, false, 1, 1},         // 11 -> exp 1 man 1 (bit below leading one)
		{0b1011, false, 3, 0b10}, // leading at 3: man[0]=bit2=0, man[1]=bit1=1
		{512, false, 9, 0},
	}
	for _, c := range cases {
		for i := 0; i < 11; i++ {
			in[i] = c.x&(1<<uint(i)) != 0
		}
		out := nw.Eval(in)
		sign := out[0]
		exp, man := 0, 0
		for b := 0; b < 4; b++ {
			if out[1+b] {
				exp |= 1 << uint(b)
			}
		}
		for b := 0; b < 2; b++ {
			if out[5+b] {
				man |= 1 << uint(b)
			}
		}
		if sign != c.sign || exp != c.exp || man != c.man {
			t.Errorf("int2float(%d) = (s=%v e=%d m=%d), want (s=%v e=%d m=%d)",
				c.x, sign, exp, man, c.sign, c.exp, c.man)
		}
	}
}

func TestArbiterFunctional(t *testing.T) {
	nw := MustBuild("arbiter")
	in := make([]bool, 256)
	// Requests at 5 and 70, priority mask allows only 70.
	in[5], in[70] = true, true
	in[128+70] = true
	out := nw.Eval(in)
	for i := 0; i < 128; i++ {
		if out[i] != (i == 70) {
			t.Fatalf("grant[%d] = %v", i, out[i])
		}
	}
	if !out[128] {
		t.Error("any-grant not set")
	}
	// Both masked: lower index wins.
	in[128+5] = true
	out = nw.Eval(in)
	if !out[5] || out[70] {
		t.Errorf("priority violated: g5=%v g70=%v", out[5], out[70])
	}
}

func TestBDDBuildsForAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("BDD construction for all benchmarks is slow")
	}
	for _, g := range All() {
		nw := g.Build()
		order := bdd.DFSOrder(nw)
		m, roots, err := bdd.BuildNetwork(nw, order, 4_000_000)
		if err != nil {
			t.Errorf("%s: %v", g.Name, err)
			continue
		}
		nodes := m.CountNodes(roots...)
		edges := m.CountEdges(roots...)
		t.Logf("%s: %d nodes, %d edges", g.Name, nodes, edges)
		if nodes < 3 {
			t.Errorf("%s: degenerate BDD (%d nodes)", g.Name, nodes)
		}
	}
}
