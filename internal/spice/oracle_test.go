package spice

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"compact/internal/defect"
	"compact/internal/xbar"
)

// The differential oracles of the nodal solve: a dense n×n assembly of the
// conductance matrix, Gaussian elimination with partial pivoting and
// Jacobi-preconditioned conjugate gradient. They share no code with
// nodal.go but the compiled network, so an agreement between them and
// solve checks the bipartite split, the V layout, the per-trial
// conductances and the Cholesky kernels together.

// stamp adds conductance gc between nodes i and j.
func stamp(g [][]float64, i, j int, gc float64) {
	g[i][i] += gc
	g[j][j] += gc
	g[i][j] -= gc
	g[j][i] -= gc
}

// system assembles the conductance matrix and current vector for one
// assignment. res overrides the compiled per-plane resistance maps when
// non-nil (the Monte Carlo per-trial path). Every device of a plane reads
// its map at its physical position.
func (nw *network) system(assignment []bool, res []*ResistanceMap) ([][]float64, []float64) {
	if res == nil {
		res = nw.res
	}
	n := nw.n
	g := make([][]float64, n)
	backing := make([]float64, n*n)
	for i := range g {
		g[i], backing = backing[:n:n], backing[n:]
	}
	b := make([]float64, n)

	gOnNom, gOffNom := 1/nw.model.ROn, 1/nw.model.ROff
	for p, pl := range nw.planes {
		var m *ResistanceMap
		if res != nil {
			m = res[p]
		}
		rows, cols := pl.cells.Rows(), pl.cells.Cols()
		for r := 0; r < rows; r++ {
			cs, es := pl.cells.Row(r)
			for c := 0; c < cols; c++ {
				// Walk the row's devices with a cursor: every crossing
				// before the next device is Off.
				var e xbar.Entry
				if len(cs) > 0 && cs[0] == c {
					e, cs, es = es[0], cs[1:], es[1:]
				}
				on := e.Conducts(assignment)
				if pl.override != nil {
					switch pl.override[r*cols+c] {
					case 1:
						on = true
					case -1:
						on = false
					}
				}
				gc := gOffNom
				if on {
					gc = gOnNom
				}
				if m != nil {
					pr, pc := r, c
					if pl.rowPhys != nil {
						pr, pc = pl.rowPhys[r], pl.colPhys[c]
					}
					gc = 1 / m.OffAt(pr, pc)
					if on {
						gc = 1 / m.OnAt(pr, pc)
					}
				}
				stamp(g, pl.rowBase+r, pl.colBase+c, gc)
			}
		}
		for _, br := range pl.bridges {
			gc := gOnNom
			if m != nil {
				gc = 1 / m.OnAt(br.pr, br.pc)
			}
			stamp(g, br.a, br.b, gc)
		}
	}
	// Driver on the input node.
	gd := 1 / nw.model.RDriver
	g[nw.input][nw.input] += gd
	b[nw.input] += nw.model.Vin * gd
	// Sense resistors on output nodes (one per distinct node; the input
	// node doubles as the const-1 output and is not additionally loaded).
	seen := make(map[int]bool)
	for _, w := range nw.outputs {
		if w == nw.input || seen[w] {
			continue
		}
		seen[w] = true
		g[w][w] += 1 / nw.model.RSense
	}
	return g, b
}

// solveDense is Gaussian elimination with partial pivoting (destroys g, b).
// zero reports whether x is exactly 0 — a sparsity fast path in the linear
// solvers (skip a zero elimination multiplier, zero RHS shortcut), never a
// tolerance decision.
//
//lint:ignore floatcmp centralized exact-zero sparsity fast path
func zero(x float64) bool { return x == 0 }

func solveDense(g [][]float64, b []float64) ([]float64, error) {
	n := len(g)
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(g[r][col]) > math.Abs(g[p][col]) {
				p = r
			}
		}
		if math.Abs(g[p][col]) < 1e-18 {
			return nil, fmt.Errorf("spice: singular conductance matrix at column %d", col)
		}
		g[col], g[p] = g[p], g[col]
		b[col], b[p] = b[p], b[col]
		inv := 1 / g[col][col]
		for r := col + 1; r < n; r++ {
			f := g[r][col] * inv
			if zero(f) {
				continue
			}
			row, prow := g[r], g[col]
			for c := col; c < n; c++ {
				row[c] -= f * prow[c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		row := g[r]
		for c := r + 1; c < n; c++ {
			s -= row[c] * x[c]
		}
		x[r] = s / row[r]
	}
	return x, nil
}

// solveCG is Jacobi-preconditioned conjugate gradient for the SPD nodal
// matrix.
func solveCG(g [][]float64, b []float64) ([]float64, error) {
	n := len(g)
	x := make([]float64, n)
	r := append([]float64(nil), b...)
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)
	diag := make([]float64, n)
	for i := range diag {
		diag[i] = g[i][i]
		if diag[i] <= 0 {
			return nil, fmt.Errorf("spice: non-positive diagonal at node %d", i)
		}
	}
	bnorm := 0.0
	for _, bi := range b {
		bnorm += bi * bi
	}
	bnorm = math.Sqrt(bnorm)
	if zero(bnorm) {
		return x, nil
	}
	rz := 0.0
	for i := range r {
		z[i] = r[i] / diag[i]
		p[i] = z[i]
		rz += r[i] * z[i]
	}
	maxIter := 20*n + 100
	for iter := 0; iter < maxIter; iter++ {
		// ap = G p.
		for i := 0; i < n; i++ {
			s := 0.0
			row := g[i]
			for j := 0; j < n; j++ {
				s += row[j] * p[j]
			}
			ap[i] = s
		}
		pap := 0.0
		for i := range p {
			pap += p[i] * ap[i]
		}
		if pap <= 0 {
			return nil, errors.New("spice: matrix not positive definite")
		}
		alpha := rz / pap
		rnorm := 0.0
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
			rnorm += r[i] * r[i]
		}
		if math.Sqrt(rnorm) <= 1e-12*bnorm {
			return x, nil
		}
		rzNew := 0.0
		for i := range r {
			z[i] = r[i] / diag[i]
			rzNew += r[i] * z[i]
		}
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return nil, errors.New("spice: conjugate gradient did not converge")
}

// nodalVoltages runs the production solve and returns every node voltage.
func nodalVoltages(nw *network, assignment []bool, res []*ResistanceMap) ([]float64, error) {
	var sv solver
	nw.trial(&sv, res)
	if err := nw.solve(&sv, assignment); err != nil {
		return nil, err
	}
	x := make([]float64, nw.n)
	for w := range x {
		x[w] = nw.voltage(&sv, w)
	}
	return x, nil
}

// denseVoltages runs the dense-elimination oracle on the same system.
func denseVoltages(nw *network, assignment []bool, res []*ResistanceMap) ([]float64, error) {
	g, b := nw.system(assignment, res)
	return solveDense(g, b)
}

// checkNodalMatchesDense compares the two solves node by node.
func checkNodalMatchesDense(t *testing.T, what string, nw *network, assignment []bool, res []*ResistanceMap) {
	t.Helper()
	want, err := denseVoltages(nw, assignment, res)
	if err != nil {
		t.Fatalf("%s: dense oracle: %v", what, err)
	}
	got, err := nodalVoltages(nw, assignment, res)
	if err != nil {
		t.Fatalf("%s: nodal solve: %v", what, err)
	}
	for w := range want {
		if math.Abs(got[w]-want[w]) > nodalTol*(1+math.Abs(want[w])) {
			t.Errorf("%s: node %d: nodal %v, dense %v", what, w, got[w], want[w])
		}
	}
}

// nodalTol bounds the node-voltage gap between the Cholesky solve of the
// Schur complement and dense elimination, relative to 1+|v|.
const nodalTol = 1e-9

// TestNodalMatchesDense runs every golden design through both solves on
// the golden assignments: clean 2D arrays, 2D designs placed on defective
// arrays (bridges and stuck overrides, with and without a resistance
// draw), K=3/K=4 stacks, and dec, whose solve spans several kernel tiles.
func TestNodalMatchesDense(t *testing.T) {
	for _, name := range []string{"ctrl", "cavlc", "int2float", "dec",
		"ctrl_k3", "cavlc_k3", "int2float_k3", "ctrl_k4", "int2float_k4"} {
		d := new(xbar.Design)
		goldenLoad(t, name, d)
		nw, err := compile(d, Env{Model: Default()})
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range goldenVectors(len(d.VarNames), 3) {
			checkNodalMatchesDense(t, name+" "+bitString(in), nw, in, nil)
		}
	}
	for i, name := range []string{"ctrl_placed1", "ctrl_placed2", "ctrl_placed3", "ctrl_placed4",
		"cavlc_placed1", "cavlc_placed2", "cavlc_placed3", "int2float_placed1", "int2float_placed2"} {
		var pc struct {
			Defects *defect.Map `json:"defects"`
			RowPerm []int       `json:"row_perm"`
			ColPerm []int       `json:"col_perm"`
		}
		goldenLoad(t, name, &pc)
		d := new(xbar.Design)
		goldenLoad(t, strings.SplitN(name, "_", 2)[0], d)
		nw, err := compile(d, Env{Model: Default(), Defects: []*defect.Map{pc.Defects},
			Placement: &xbar.Placement{Perms: [][]int{pc.RowPerm, pc.ColPerm}}})
		if err != nil {
			t.Fatal(err)
		}
		if len(nw.planes[0].bridges) == 0 {
			t.Errorf("%s: no stuck-ON bridges", name)
		}
		for _, in := range goldenVectors(len(d.VarNames), 3) {
			checkNodalMatchesDense(t, name+" "+bitString(in), nw, in, nil)
		}
		res, err := SampleResistances(pc.Defects.Rows(), pc.Defects.Cols(), Default(), goldenSpread, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		checkNodalMatchesDense(t, name+" with resistances", nw, goldenVectors(len(d.VarNames), 1)[0], []*ResistanceMap{res})
	}
}
