package spice

import (
	"fmt"
	"math"
)

// The bipartite nodal solve
//
// A crossbar is a bipartite graph, and so is its resistive network: every
// device — a plane crossing (an Off cell still leaks), a via stitch of a
// stack, a stuck-ON bridge to a spare line — joins a node of an even wire
// layer (wordlines, plus spare rows) to a node of an odd one (bitlines,
// plus spare columns), while the driver and the sense loads only add to
// the diagonal. Ordered by side, the conductance matrix is
//
//	G = [ D_e  −W  ]
//	    [ −Wᵀ  D_o ]
//
// with D_e and D_o diagonal. The solve eliminates the larger side l in
// closed form and Cholesky-factors the Schur complement of the smaller
// side s,
//
//	S = D_s − W·D_l⁻¹·Wᵀ = D_s − V·Vᵀ,  V = W·D_l^{-1/2},
//
// which is symmetric positive definite whenever G is: a non-positive pivot
// means the network is singular. The large side follows by
// back-substitution, x_l = D_l⁻¹(b_l + Wᵀ·x_s). A solve costs about
// n_s²·n_l/2 + n_s³/6 multiply-adds in n_s·(n_s+2·n_l) floats, where
// elimination on G took n³/3 in n².
//
// W is held in "V layout": one row of n_l floats per small-side node.

// sides splits the compiled nodes into the bipartite halves and fixes the
// layout of W. Plane p's rows are wire layer p and its columns layer p+1,
// so a plane's rows (and the row end of each of its bridges) take side
// p mod 2 and its columns the other.
func (nw *network) sides() {
	even := make([]bool, nw.n)
	for p, pl := range nw.planes {
		for r := 0; r < pl.cells.Rows(); r++ {
			even[pl.rowBase+r] = p%2 == 0
		}
		for c := 0; c < pl.cells.Cols(); c++ {
			even[pl.colBase+c] = p%2 == 1
		}
		for _, br := range pl.bridges {
			even[br.a], even[br.b] = p%2 == 0, p%2 == 1
		}
	}
	ne := 0
	for _, e := range even {
		if e {
			ne++
		}
	}
	// Keep the smaller side (ties keep the odd one).
	keepEven := ne < nw.n-ne
	nw.small = make([]bool, nw.n)
	nw.slot = make([]int, nw.n)
	for i, e := range even {
		nw.small[i] = e == keepEven
		if nw.small[i] {
			nw.slot[i] = nw.ns
			nw.ns++
		} else {
			nw.slot[i] = nw.nl
			nw.nl++
		}
	}
	for _, pl := range nw.planes {
		for r := 0; r < pl.cells.Rows(); r++ {
			cs, _ := pl.cells.Row(r)
			for _, c := range cs {
				nw.devW = append(nw.devW, nw.wIndex(pl.rowBase+r, pl.colBase+c))
			}
		}
	}
}

// wIndex locates the coupling between nodes a and b, one per side, in the
// V layout.
func (nw *network) wIndex(a, b int) int {
	if !nw.small[a] {
		a, b = b, a
	}
	return nw.slot[a]*nw.nl + nw.slot[b]
}

// solver is the scratch of one solving goroutine, reused across trials
// and vectors. base and dev hold the trial's conductances in the V layout:
// base is W with every programmed device off (stuck-ON cells and bridges
// conducting), and dev[d] is device d's conductance when its entry
// conducts (devices in devW order). A stuck cell's two values are equal,
// so the per-vector pass needs no override. The rest is per vector: V, the
// Schur complement S (lower half, row-major), the two diagonals and the
// right-hand sides. la runs the dense kernels.
type solver struct {
	base, dev     []float64
	v, s          []float64
	ds, dl, rl, t []float64
	xs            []float64
	out           []float64
	la            linalg
}

// newSolver returns an empty solver on the fastest kernel set this CPU
// has.
func newSolver() *solver {
	return &solver{la: linalg{avx2: hasAVX2}}
}

// grow returns buf resized to n, reallocating only when it is too short.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// trial computes the conductances of the per-plane resistance maps res
// (nil, or a nil map, = nominal devices) into sv, once per trial.
func (nw *network) trial(sv *solver, res []*ResistanceMap) {
	sv.base = grow(sv.base, nw.ns*nw.nl)
	clear(sv.base)
	sv.dev = grow(sv.dev, len(nw.devW))
	gOnNom, gOffNom := 1/nw.model.ROn, 1/nw.model.ROff
	d := 0
	for p, pl := range nw.planes {
		var m *ResistanceMap
		if res != nil {
			m = res[p]
		}
		rows, cols := pl.cells.Rows(), pl.cells.Cols()
		for r := 0; r < rows; r++ {
			cs, _ := pl.cells.Row(r)
			for c := 0; c < cols; c++ {
				gOn, gOff := gOnNom, gOffNom
				if m != nil {
					pr, pc := pl.rowPhys[r], pl.colPhys[c]
					gOn, gOff = 1/m.OnAt(pr, pc), 1/m.OffAt(pr, pc)
				}
				if pl.override != nil {
					switch pl.override[r*cols+c] {
					case 1:
						gOff = gOn
					case -1:
						gOn = gOff
					}
				}
				sv.base[nw.wIndex(pl.rowBase+r, pl.colBase+c)] = gOff
				if len(cs) > 0 && cs[0] == c {
					sv.dev[d] = gOn
					cs = cs[1:]
					d++
				}
			}
		}
		for _, br := range pl.bridges {
			gc := gOnNom
			if m != nil {
				gc = 1 / m.OnAt(br.pr, br.pc)
			}
			sv.base[nw.wIndex(br.a, br.b)] += gc
		}
	}
}

// solve computes every node voltage for one assignment under the trial's
// conductances in sv; voltage reads them.
func (nw *network) solve(sv *solver, assignment []bool) error {
	ns, nl := nw.ns, nw.nl
	v := grow(sv.v, ns*nl)
	sv.v = v
	copy(v, sv.base)
	d := 0
	for _, pl := range nw.planes {
		for r := 0; r < pl.cells.Rows(); r++ {
			_, es := pl.cells.Row(r)
			for _, e := range es {
				if e.Conducts(assignment) {
					v[nw.devW[d]] = sv.dev[d]
				}
				d++
			}
		}
	}

	// Diagonals: each node's device conductances, then the driver on the
	// input node and a sense resistor per loaded output node.
	ds, dl := grow(sv.ds, ns), grow(sv.dl, nl)
	sv.ds, sv.dl = ds, dl
	clear(dl)
	// Four rows at a time: their sums are independent chains, and each
	// dl[k] still adds the rows in order.
	i := 0
	for ; i+4 <= ns; i += 4 {
		r0, r1 := v[i*nl:i*nl+nl], v[(i+1)*nl:(i+1)*nl+nl]
		r2, r3 := v[(i+2)*nl:(i+2)*nl+nl], v[(i+3)*nl:(i+3)*nl+nl]
		var s0, s1, s2, s3 float64
		for k := range dl {
			w0, w1, w2, w3 := r0[k], r1[k], r2[k], r3[k]
			s0 += w0
			s1 += w1
			s2 += w2
			s3 += w3
			dl[k] = dl[k] + w0 + w1 + w2 + w3
		}
		ds[i], ds[i+1], ds[i+2], ds[i+3] = s0, s1, s2, s3
	}
	for ; i < ns; i++ {
		sum := 0.0
		for k, w := range v[i*nl : i*nl+nl] {
			sum += w
			dl[k] += w
		}
		ds[i] = sum
	}
	gd := 1 / nw.model.RDriver
	nw.addDiag(ds, dl, nw.input, gd)
	for _, w := range nw.loads {
		nw.addDiag(ds, dl, w, 1/nw.model.RSense)
	}

	// Scale V's columns by D_l^{-1/2}; t = D_l^{-1/2}·b_l.
	rl, t := grow(sv.rl, nl), grow(sv.t, nl)
	sv.rl, sv.t = rl, t
	for k, x := range dl {
		if !(x > 0) {
			return fmt.Errorf("spice: singular conductance matrix at node %d", nw.node(false, k))
		}
		rl[k] = 1 / math.Sqrt(x)
	}
	for i := 0; i < ns; i++ {
		sv.la.scale(v[i*nl:i*nl+nl], rl)
	}
	// The right-hand side of the small side, b_s + V·t: b is Vin·gd on
	// the input node and zero elsewhere.
	clear(t)
	xs := grow(sv.xs, ns)
	sv.xs = xs
	clear(xs)
	bIn, in := nw.model.Vin*gd, nw.slot[nw.input]
	if nw.small[nw.input] {
		xs[in] = bIn
	} else {
		t[in] = bIn * rl[in]
		for i := range xs {
			xs[i] = v[i*nl+in] * t[in]
		}
	}

	// S = D_s − V·Vᵀ (lower half), factored in place.
	s := grow(sv.s, ns*ns)
	sv.s = s
	for i := 0; i < ns; i++ {
		row := s[i*ns : i*ns+i+1]
		clear(row)
		row[i] = ds[i]
	}
	sv.la.lowerUpdate(s, ns, v, nl, 0, ns, 0, ns, 0, nl)
	if i := sv.la.cholesky(s, ns); i >= 0 {
		return fmt.Errorf("spice: singular conductance matrix at node %d", nw.node(true, i))
	}
	sv.la.cholSolve(s, ns, xs)

	// Back-substitution, kept scaled: t ← t + Vᵀ·x_s, so x_l = rl·t.
	for i := 0; i < ns; i++ {
		sv.la.axpy(t, v[i*nl:i*nl+nl], xs[i])
	}
	return nil
}

// addDiag adds conductance gc to node w's diagonal entry.
func (nw *network) addDiag(ds, dl []float64, w int, gc float64) {
	if nw.small[w] {
		ds[nw.slot[w]] += gc
	} else {
		dl[nw.slot[w]] += gc
	}
}

// node returns the node in slot i of the small side (small) or the large
// one; it only names the node of an error.
func (nw *network) node(small bool, i int) int {
	for w := range nw.small {
		if nw.small[w] == small && nw.slot[w] == i {
			return w
		}
	}
	return -1
}

// voltage reads node w's voltage from the last solve.
func (nw *network) voltage(sv *solver, w int) float64 {
	if nw.small[w] {
		return sv.xs[nw.slot[w]]
	}
	return sv.rl[nw.slot[w]] * sv.t[nw.slot[w]]
}
