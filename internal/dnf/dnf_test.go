package dnf

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"compact/internal/bdd"
	"compact/internal/labeling"
	"compact/internal/logic"
	"compact/internal/pla"
	"compact/internal/xbar"
)

func TestMapSimpleCover(t *testing.T) {
	// f = a&b | !c
	src := ".i 3\n.o 1\n.ilb a b c\n.ob f\n11- 1\n--0 1\n.e\n"
	tab, err := pla.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	d, err := Map(tab)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := tab.Network("f")
	if err != nil {
		t.Fatal(err)
	}
	if bad := d.VerifyAgainst(nw.Eval, 3, 10, 0, 1); bad != nil {
		t.Errorf("mismatch on %v", bad)
	}
	if d.Input.Index != d.Rows-1 || d.Outputs[0].Index != 0 {
		t.Errorf("port placement wrong: in=%v out=%v", d.Input, d.Outputs)
	}
}

func TestMapOddLiteralCube(t *testing.T) {
	// Cube with 3 literals needs the even-length padding.
	src := ".i 3\n.o 1\n111 1\n.e\n"
	tab, err := pla.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	d, err := Map(tab)
	if err != nil {
		t.Fatal(err)
	}
	nw, _ := tab.Network("and3")
	if bad := d.VerifyAgainst(nw.Eval, 3, 10, 0, 1); bad != nil {
		t.Errorf("mismatch on %v", bad)
	}
}

func TestMapTautologyAndEmpty(t *testing.T) {
	// Output 0 is constant true (all-dash cube); output 1 has no cubes.
	src := ".i 2\n.o 2\n-- 10\n.e\n"
	tab, err := pla.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	d, err := Map(tab)
	if err != nil {
		t.Fatal(err)
	}
	nw, _ := tab.Network("k")
	if bad := d.VerifyAgainst(nw.Eval, 2, 10, 0, 1); bad != nil {
		t.Errorf("mismatch on %v", bad)
	}
}

func TestMapNetworkRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		nw := randomNetwork(rng, 5, 15)
		d, err := MapNetwork(nw, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if bad := d.VerifyAgainst(nw.Eval, 5, 10, 0, 1); bad != nil {
			t.Fatalf("trial %d: mismatch on %v", trial, bad)
		}
	}
}

// TestDNFMuchLargerThanCompact demonstrates the intro's motivation: the
// cube-chain design dwarfs the BDD-based one.
func TestDNFMuchLargerThanCompact(t *testing.T) {
	// 6-input majority-ish function with a fat on-set.
	b := logic.NewBuilder("wide")
	xs := b.Inputs("x", 6)
	b.Output("f", b.Or(b.And(xs[0], xs[1]), b.And(xs[2], xs[3]), b.And(xs[4], xs[5])))
	nw := b.Build()

	dnfDesign, err := MapNetwork(nw, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, roots, err := bdd.BuildNetwork(nw, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := xbar.FromBDD(m, roots, nw.OutputNames)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := labeling.SolveContext(context.Background(), bg.Problem(true), labeling.Options{Method: labeling.MethodMIP, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	compactDesign, err := xbar.Map(bg, sol.Labels)
	if err != nil {
		t.Fatal(err)
	}
	ds, cs := dnfDesign.Stats(), compactDesign.Stats()
	if ds.S <= cs.S {
		t.Errorf("DNF S=%d not larger than COMPACT S=%d", ds.S, cs.S)
	}
	t.Logf("DNF %dx%d (S=%d) vs COMPACT %dx%d (S=%d)", ds.Rows, ds.Cols, ds.S, cs.Rows, cs.Cols, cs.S)
}

func TestMapErrors(t *testing.T) {
	if _, err := Map(&pla.Table{NumIn: 0, NumOut: 1}); err == nil {
		t.Error("zero-input cover accepted")
	}
	b := logic.NewBuilder("wide")
	b.Output("f", b.And(b.Inputs("x", 20)...))
	if _, err := MapNetwork(b.Build(), 10); err == nil {
		t.Error("too-wide network accepted")
	}
}

func randomNetwork(rng *rand.Rand, nIn, nGates int) *logic.Network {
	b := logic.NewBuilder("rand")
	var pool []int
	for i := 0; i < nIn; i++ {
		pool = append(pool, b.Input(string(rune('a'+i))))
	}
	for g := 0; g < nGates; g++ {
		pick := func() int { return pool[rng.Intn(len(pool))] }
		var id int
		switch rng.Intn(5) {
		case 0:
			id = b.And(pick(), pick())
		case 1:
			id = b.Or(pick(), pick())
		case 2:
			id = b.Not(pick())
		case 3:
			id = b.Xor(pick(), pick())
		default:
			id = b.Mux(pick(), pick(), pick())
		}
		pool = append(pool, id)
	}
	b.Output("f", pool[len(pool)-1])
	b.Output("g", pool[len(pool)-2])
	return b.Build()
}
