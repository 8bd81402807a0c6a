package xbar

import (
	"fmt"
	"slices"
	"testing"

	"compact/internal/bdd"
	"compact/internal/labeling"
	"compact/internal/logic"
)

// bytesNetwork decodes a tiny network for FuzzMapStack: 1..5 inputs, up
// to 6 gates over the inputs, the constants and earlier gates, and 1..3
// outputs drawn from all of them, so outputs may be constants or bare
// inputs.
func bytesNetwork(next func() int) *logic.Network {
	b := logic.NewBuilder("fuzz")
	sig := append(b.Inputs("x", 1+next()%5), b.Const0(), b.Const1())
	pick := func() int { return sig[next()%len(sig)] }
	for g := next() % 7; g > 0; g-- {
		x, y := pick(), pick()
		switch next() % 5 {
		case 0:
			sig = append(sig, b.And(x, y))
		case 1:
			sig = append(sig, b.Or(x, y))
		case 2:
			sig = append(sig, b.Xor(x, y))
		case 3:
			sig = append(sig, b.Not(x))
		default:
			sig = append(sig, b.Mux(pick(), x, y))
		}
	}
	for o := 0; o <= next()%3; o++ {
		b.Output(fmt.Sprintf("f%d", o), pick())
	}
	return b.Build()
}

// FuzzMapStack maps arbitrary valid layer intervals of a tiny network's
// BDD graph, in SBDD or per-output ROBDD form, onto K ∈ {2, 3, 4} layers.
// Intervals come from the fuzz bytes; an alignment node left on one odd
// layer is widened onto a neighbouring even one, and one endpoint of any
// edge still unrealizable is widened to the full span, which realizes
// every edge. This reaches what solver-produced labelings rarely do:
// const-0 outputs, roots on higher even layers and the 1-terminal off
// layer 0. The mapping must satisfy both postconditions, checked here
// independently, and evaluate to the network on all 2^n inputs.
func FuzzMapStack(f *testing.F) {
	f.Add([]byte{1, 2, 0, 1, 2, 1}, uint8(0), []byte{0, 1, 2, 3, 4})
	f.Add([]byte{2, 3, 0, 1, 3, 4, 2, 2, 6, 5, 0}, uint8(1), []byte{2, 7, 5, 1, 9, 3, 4, 8})
	f.Add([]byte{4, 6, 0, 1, 2, 1, 3, 4, 2, 0, 3, 5, 6, 2, 7, 1, 2, 3, 2, 5, 4}, uint8(2), []byte{6, 2, 9, 11, 1, 0, 5, 3, 7})
	f.Fuzz(func(t *testing.T, netBytes []byte, kByte uint8, ivBytes []byte) {
		next := func() int {
			if len(netBytes) == 0 {
				return 0
			}
			b := netBytes[0]
			netBytes = netBytes[1:]
			return int(b)
		}
		nw := bytesNetwork(next)
		robdds := next()%2 == 1
		order := bdd.DFSOrder(nw)
		var bg *BDDGraph
		var err error
		if robdds {
			var singles []bdd.Single
			if singles, err = bdd.BuildSeparate(nw, order, 0); err == nil {
				bg, err = FromSeparate(singles, nw.InputNames())
			}
		} else {
			m, roots, berr := bdd.BuildNetwork(nw, order, 0)
			if err = berr; err == nil {
				bg, err = FromBDD(m, roots, nw.OutputNames)
			}
		}
		if err != nil {
			t.Fatal(err)
		}

		k := 2 + int(kByte)%3
		n := bg.G.N()
		lo, hi := make([]int, n), make([]int, n)
		for v := range lo {
			a := 0
			if v < len(ivBytes) {
				a = int(ivBytes[v])
			}
			lo[v] = a % k
			hi[v] = lo[v] + (a/k)%(k-lo[v])
		}
		for _, v := range bg.AlignNodes() {
			if lo[v] == hi[v] && lo[v]%2 == 1 {
				if hi[v]+1 < k {
					hi[v]++
				} else {
					lo[v]--
				}
			}
		}
		realizable := func(u, v int) bool {
			for p := 0; p < k-1; p++ {
				if (labeling.Occupies(lo[u], hi[u], p) && labeling.Occupies(lo[v], hi[v], p+1)) ||
					(labeling.Occupies(lo[v], hi[v], p) && labeling.Occupies(lo[u], hi[u], p+1)) {
					return true
				}
			}
			return false
		}
		for i, e := range bg.G.Edges() {
			if !realizable(e[0], e[1]) {
				w := e[i%2]
				lo[w], hi[w] = 0, k-1
			}
		}

		m, err := MapStack(bg, k, lo, hi)
		if err != nil {
			t.Fatalf("K=%d lo=%v hi=%v: %v", k, lo, hi, err)
		}

		// xbar.grid-dims: occupancy, plus the const-0 wire and padding.
		want := make([]int, k)
		stitches := 0
		for v := range lo {
			for l := lo[v]; l <= hi[v]; l++ {
				want[l]++
			}
			stitches += hi[v] - lo[v]
		}
		for _, r := range bg.Roots {
			if r.Kind == RootConst0 {
				want[0]++
				break
			}
		}
		for l := range want {
			want[l] = max(want[l], 1)
		}
		if !slices.Equal(m.Widths, want) {
			t.Fatalf("widths %v, want %v", m.Widths, want)
		}
		// xbar.programmed-cells, over the global wire numbering.
		base := make([]int, k+1)
		for l, w := range m.Widths {
			base[l+1] = base[l] + w
		}
		id := func(ref WireRef) int { return base[ref.Layer] + ref.Index }
		outs := make([]int, len(m.Outputs))
		for i, o := range m.Outputs {
			outs[i] = id(o)
		}
		w := NewWires(base[k], id(m.Input), outs)
		for p := range m.Planes {
			plane := &m.Planes[p]
			if plane.Rows() != m.Widths[p] || plane.Cols() != m.Widths[p+1] {
				t.Fatalf("plane %d is %dx%d for widths %d, %d", p, plane.Rows(), plane.Cols(), m.Widths[p], m.Widths[p+1])
			}
			// The sparse plane agrees cell for cell with a dense grid
			// filled from its own devices.
			dense := make([][]Entry, plane.Rows())
			for r := range dense {
				dense[r] = make([]Entry, plane.Cols())
			}
			for _, dv := range plane.Devices() {
				dense[dv.Row][dv.Col] = dv.E
			}
			for r, row := range dense {
				for c, e := range row {
					if got := plane.At(r, c); got != e {
						t.Fatalf("plane %d At(%d,%d) = %v, dense grid %v", p, r, c, got, e)
					}
					w.Add(base[p]+r, base[p+1]+c, e, func() string { return fmt.Sprintf("(%d,%d,%d)", p, r, c) })
				}
			}
		}
		if len(w.Edges) != bg.G.M()+stitches {
			t.Fatalf("%d programmed cells for %d edges + %d stitches", len(w.Edges), bg.G.M(), stitches)
		}

		in := make([]bool, nw.NumInputs())
		vars := make([]bool, len(in))
		for a := 0; a < 1<<len(in); a++ {
			for i := range in {
				in[i] = a>>i&1 == 1
			}
			for level, i := range order {
				vars[level] = in[i] // SBDD literals index BDD levels
			}
			if robdds {
				copy(vars, in) // ROBDD literals index network inputs
			}
			got, err := w.Eval(vars)
			if err != nil {
				t.Fatal(err)
			}
			if want := nw.Eval(in); !slices.Equal(got, want) {
				t.Fatalf("K=%d lo=%v hi=%v input %v: design %v, network %v", k, lo, hi, in, got, want)
			}
		}
	})
}
