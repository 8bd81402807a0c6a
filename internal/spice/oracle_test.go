package spice

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
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
// assignment under the per-plane resistance maps res (nil, or a nil map,
// = nominal devices). Every device of a plane reads its map at its
// physical position.
func (nw *network) system(assignment []bool, res []*ResistanceMap) ([][]float64, []float64) {
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
					pr, pc := pl.rowPhys[r], pl.colPhys[c]
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

// nodalVoltages runs the production solve on the AVX2 or the Go kernel
// set and returns every node voltage.
func nodalVoltages(nw *network, assignment []bool, res []*ResistanceMap, avx2 bool) ([]float64, error) {
	sv := newSolver()
	sv.la.avx2 = avx2
	nw.trial(sv, res)
	if err := nw.solve(sv, assignment); err != nil {
		return nil, err
	}
	x := make([]float64, nw.n)
	for w := range x {
		x[w] = nw.voltage(sv, w)
	}
	return x, nil
}

// denseVoltages runs the dense-elimination oracle on the same system.
func denseVoltages(nw *network, assignment []bool, res []*ResistanceMap) ([]float64, error) {
	g, b := nw.system(assignment, res)
	return solveDense(g, b)
}

// checkNodalMatchesDense compares the two solves node by node. Where the
// CPU has AVX2 it also solves on the Go kernels, which must give the same
// bits.
func checkNodalMatchesDense(t *testing.T, what string, nw *network, assignment []bool, res []*ResistanceMap) {
	t.Helper()
	want, err := denseVoltages(nw, assignment, res)
	if err != nil {
		t.Fatalf("%s: dense oracle: %v", what, err)
	}
	got, err := nodalVoltages(nw, assignment, res, hasAVX2)
	if err != nil {
		t.Fatalf("%s: nodal solve: %v", what, err)
	}
	if hasAVX2 {
		ref, err := nodalVoltages(nw, assignment, res, false)
		if err != nil {
			t.Fatalf("%s: nodal solve on the Go kernels: %v", what, err)
		}
		sameBits(t, what+": node voltages", got, ref)
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
	for i, name := range placedGoldens {
		d, env := placedGolden(t, name)
		nw, err := compile(d, env)
		if err != nil {
			t.Fatal(err)
		}
		if len(nw.planes[0].bridges) == 0 {
			t.Errorf("%s: no stuck-ON bridges", name)
		}
		for _, in := range goldenVectors(len(d.VarNames), 3) {
			checkNodalMatchesDense(t, name+" "+bitString(in), nw, in, nil)
		}
		res, err := nw.sample(goldenSpread, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		checkNodalMatchesDense(t, name+" with resistances", nw, goldenVectors(len(d.VarNames), 1)[0], res)
	}
}

// The 2D compile oracle: the one-plane compile that preceded the
// physical-stack one (place), kept here as its reference at K=2. place2D
// binds the rows and columns through the placement (identity when nil)
// and compileDefects2D adds the stuck overrides and spare-line bridges of
// the plane's one defect map. Both assume a valid Env.

func identityPerm(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return perm
}

func (nw *network) place2D(d *xbar.Design, env Env) {
	var dm *defect.Map
	if len(env.Defects) == 1 {
		dm = env.Defects[0]
	}
	pl := plane{cells: d.Planes[0], colBase: d.Rows}
	if p := env.Placement; p != nil {
		pl.rowPhys, pl.colPhys = p.Perms[0], p.Perms[1]
	} else {
		pl.rowPhys, pl.colPhys = identityPerm(d.Rows), identityPerm(d.Cols)
	}
	if dm.Len() > 0 {
		nw.n = pl.compileDefects2D(dm, d.Rows, d.Cols)
	}
	nw.planes = []plane{pl}
}

func (pl *plane) compileDefects2D(dm *defect.Map, rows, cols int) int {
	physRows, physCols := dm.Rows(), dm.Cols()
	invRow := make([]int, physRows)
	invCol := make([]int, physCols)
	for i := range invRow {
		invRow[i] = -1
	}
	for i := range invCol {
		invCol[i] = -1
	}
	for r, pr := range pl.rowPhys {
		invRow[pr] = r
	}
	for c, pc := range pl.colPhys {
		invCol[pc] = c
	}

	type fault struct{ pr, pc int }
	var stuckOn []fault
	for _, fc := range dm.Cells() {
		r, c := invRow[fc.Row], invCol[fc.Col]
		if r >= 0 && c >= 0 {
			if pl.override == nil {
				pl.override = make([]int8, rows*cols)
			}
			if fc.Kind == defect.StuckOn {
				pl.override[r*cols+c] = 1
			} else {
				pl.override[r*cols+c] = -1
			}
			continue
		}
		if fc.Kind == defect.StuckOn {
			stuckOn = append(stuckOn, fault{fc.Row, fc.Col})
		}
	}
	if len(stuckOn) == 0 {
		return rows + cols
	}

	// Phase 1: BFS from the used lines over stuck-ON adjacency.
	rowReach := make([]bool, physRows)
	colReach := make([]bool, physCols)
	for _, pr := range pl.rowPhys {
		rowReach[pr] = true
	}
	for _, pc := range pl.colPhys {
		colReach[pc] = true
	}
	for changed := true; changed; {
		changed = false
		for _, f := range stuckOn {
			if rowReach[f.pr] && !colReach[f.pc] {
				colReach[f.pc] = true
				changed = true
			}
			if colReach[f.pc] && !rowReach[f.pr] {
				rowReach[f.pr] = true
				changed = true
			}
		}
	}

	// Phase 2: number the reached spares (rows, then columns) and emit one
	// bridge per stuck-ON device whose ends are both present.
	rowNode := make([]int, physRows)
	colNode := make([]int, physCols)
	for i := range rowNode {
		rowNode[i] = -1
	}
	for i := range colNode {
		colNode[i] = -1
	}
	for r, pr := range pl.rowPhys {
		rowNode[pr] = r
	}
	for c, pc := range pl.colPhys {
		colNode[pc] = rows + c
	}
	next := rows + cols
	for pr := 0; pr < physRows; pr++ {
		if rowReach[pr] && rowNode[pr] < 0 {
			rowNode[pr] = next
			next++
		}
	}
	for pc := 0; pc < physCols; pc++ {
		if colReach[pc] && colNode[pc] < 0 {
			colNode[pc] = next
			next++
		}
	}
	for _, f := range stuckOn {
		if !rowReach[f.pr] || !colReach[f.pc] {
			continue
		}
		if invRow[f.pr] >= 0 && invCol[f.pc] >= 0 {
			continue
		}
		pl.bridges = append(pl.bridges, bridgeEdge{a: rowNode[f.pr], b: colNode[f.pc], pr: f.pr, pc: f.pc})
	}
	return next
}

// placedGolden loads a golden 2D design placed on a defective array with
// spare lines, as its Env.
func placedGolden(t *testing.T, name string) (*xbar.Design, Env) {
	t.Helper()
	var pc struct {
		Defects *defect.Map `json:"defects"`
		RowPerm []int       `json:"row_perm"`
		ColPerm []int       `json:"col_perm"`
	}
	goldenLoad(t, name, &pc)
	d := new(xbar.Design)
	goldenLoad(t, strings.SplitN(name, "_", 2)[0], d)
	return d, Env{Model: Default(), Defects: []*defect.Map{pc.Defects},
		Placement: &xbar.Placement{Perms: [][]int{pc.RowPerm, pc.ColPerm}}}
}

var placedGoldens = []string{"ctrl_placed1", "ctrl_placed2", "ctrl_placed3", "ctrl_placed4",
	"cavlc_placed1", "cavlc_placed2", "cavlc_placed3", "int2float_placed1", "int2float_placed2"}

// TestCompileMatches2DOracle pins the physical-stack compile at K=2 to the
// 2D one it replaced, node for node and bridge for bridge: on every golden
// placed design (and the clean golden arrays), the same node count, the
// same per-plane bindings, overrides and bridges, and the same bipartite
// sides and V layout.
func TestCompileMatches2DOracle(t *testing.T) {
	envs := map[string]Env{}
	designs := map[string]*xbar.Design{}
	for _, name := range placedGoldens {
		designs[name], envs[name] = placedGolden(t, name)
	}
	for _, name := range []string{"ctrl", "cavlc", "int2float"} {
		designs[name] = new(xbar.Design)
		goldenLoad(t, name, designs[name])
		envs[name] = Env{Model: Default()}
	}
	for name, env := range envs {
		d := designs[name]
		got, err := compile(d, env)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w := d.Wires()
		want := &network{model: env.Model, n: w.N, phys: got.phys, input: w.Input, outputs: w.Outputs}
		want.place2D(d, env)
		for _, o := range want.outputs {
			if o != want.input && !slices.Contains(want.loads, o) {
				want.loads = append(want.loads, o)
			}
		}
		want.sides()
		if dm := env.Defects; dm != nil && !slices.Equal(got.phys, []int{dm[0].Rows(), dm[0].Cols()}) {
			t.Errorf("%s: physical widths %v, want the map's %dx%d", name, got.phys, dm[0].Rows(), dm[0].Cols())
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the stack compile differs from the 2D one:\n n %d vs %d, bridges %v\nvs %v",
				name, got.n, want.n, got.planes[0].bridges, want.planes[0].bridges)
		}
	}
}

// TestPlacedStackMatchesUnderDefects checks the electrical compile of a
// placed stack against the logical model on spare-free arrays (the
// exact-size maps that DefectRate generates): with no spare wire, every
// fault lands on a used crossing, so the placed simulation must equal a
// plain simulation of the effective design d.UnderDefects(maps, pl), at
// every K, on every vector.
func TestPlacedStackMatchesUnderDefects(t *testing.T) {
	state := uint64(0x57ac)
	for _, name := range []string{"ctrl", "cavlc", "ctrl_k3", "cavlc_k3", "ctrl_k4", "int2float_k4"} {
		d := new(xbar.Design)
		goldenLoad(t, name, d)
		maps := make([]*defect.Map, len(d.Planes))
		faults := 0
		for p := range maps {
			m, err := defect.Generate(d.Widths[p], d.Widths[p+1], 0.05, 0.5, splitmix64(&state))
			if err != nil {
				t.Fatal(err)
			}
			maps[p], faults = m, faults+m.Len()
		}
		if faults == 0 {
			t.Fatalf("%s: no faults drawn", name)
		}
		pl := &xbar.Placement{Perms: make([][]int, d.K())}
		for l, w := range d.Widths {
			pl.Perms[l] = randomInjection(&state, w, w)
		}
		eff, err := d.UnderDefects(maps, pl)
		if err != nil {
			t.Fatal(err)
		}
		env := Env{Model: Default(), Defects: maps, Placement: pl}
		for _, in := range goldenVectors(len(d.VarNames), 4) {
			got, err := SimulateEnv(d, in, env)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := Simulate(eff, in, Default())
			if err != nil {
				t.Fatalf("%s: effective design: %v", name, err)
			}
			for o := range want {
				if math.Abs(got[o]-want[o]) > nodalTol*(1+math.Abs(want[o])) {
					t.Errorf("%s %s output %d: placed %v, effective design %v", name, bitString(in), o, got[o], want[o])
				}
			}
		}
	}
}

// TestStackSpareChainsPlanes pins the cross-plane bridge topology on a
// hand-built K=3 stack: physical widths 2, 3 and 3 under logical widths
// 2, 2 and 2, with layer 1 bound in reverse (its physical wire 2 is
// spare) and layer 2's wire 2 spare. Map 0 ties the input (layer-0 wire
// 1) to the layer-1 spare; map 1 ties that spare on to the output on
// layer-2 wire 1 and to the layer-2 spare, so the layer-1 spare chains the
// faults of both planes into a sneak path, and the layer-2 spare is
// reached through it. Map 1 also pins one used
// crossing stuck-ON and holds a stuck-OFF fault on a spare crossing,
// which the compile ignores.
func TestStackSpareChainsPlanes(t *testing.T) {
	on, lit := xbar.Entry{Kind: xbar.On}, xbar.Entry{Kind: xbar.Lit, Var: 0}
	d, err := xbar.NewDesign([]int{2, 2, 2},
		[]xbar.Device{{Row: 0, Col: 0, E: lit}, {Row: 1, Col: 1, E: on}},
		[]xbar.Device{{Row: 0, Col: 0, E: on}, {Row: 1, Col: 1, E: lit}})
	if err != nil {
		t.Fatal(err)
	}
	d.Input = xbar.WireRef{Index: 1}
	d.Outputs = []xbar.WireRef{{Index: 0}, {Layer: 2, Index: 1}}
	d.OutputNames, d.VarNames = []string{"f", "g"}, []string{"a"}
	m0, m1 := mustMap(t, 2, 3), mustMap(t, 3, 3)
	for _, f := range []struct {
		m    *defect.Map
		r, c int
		k    defect.Kind
	}{
		{m0, 1, 2, defect.StuckOn},  // layer-0 wire 1 (the input) — layer-1 spare
		{m1, 2, 1, defect.StuckOn},  // layer-1 spare — layer-2 wire 1
		{m1, 2, 2, defect.StuckOn},  // layer-1 spare — layer-2 spare
		{m1, 1, 1, defect.StuckOn},  // used × used: logical (0, 1) of plane 1
		{m1, 0, 2, defect.StuckOff}, // spare crossing, stuck-OFF: ignored
	} {
		if err := f.m.Set(f.r, f.c, f.k); err != nil {
			t.Fatal(err)
		}
	}
	env := Env{Model: Default(), Defects: []*defect.Map{m0, m1},
		Placement: &xbar.Placement{Perms: [][]int{{0, 1}, {1, 0}, {0, 1}}}}
	nw, err := compile(d, env)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes 0-5 are the design's wires; the layer-1 spare is node 6 and
	// the layer-2 spare node 7.
	if nw.n != 8 {
		t.Errorf("%d nodes, want 8", nw.n)
	}
	wantBridges := [][]bridgeEdge{
		{{a: 1, b: 6, pr: 1, pc: 2}},
		{{a: 6, b: 5, pr: 2, pc: 1}, {a: 6, b: 7, pr: 2, pc: 2}},
	}
	for p, want := range wantBridges {
		if !slices.Equal(nw.planes[p].bridges, want) {
			t.Errorf("plane %d bridges %v, want %v", p, nw.planes[p].bridges, want)
		}
	}
	if nw.planes[0].override != nil || !slices.Equal(nw.planes[1].override, []int8{0, 1, 0, 0}) {
		t.Errorf("overrides %v / %v, want none / [0 1 0 0]", nw.planes[0].override, nw.planes[1].override)
	}
	if nw.small[6] == nw.small[7] || nw.small[6] != nw.small[2] || nw.small[7] != nw.small[0] {
		t.Errorf("spare sides %v do not follow layer parity", nw.small)
	}
	res, err := nw.sample(Variation{SigmaOn: 0.3, SigmaOff: 0.3}, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range [][]bool{{false}, {true}} {
		checkNodalMatchesDense(t, "stack "+bitString(in), nw, in, nil)
		checkNodalMatchesDense(t, "stack with resistances "+bitString(in), nw, in, res)
	}
	clean, err := Simulate(d, []bool{false}, Default())
	if err != nil {
		t.Fatal(err)
	}
	placed, err := SimulateEnv(d, []bool{false}, env)
	if err != nil {
		t.Fatal(err)
	}
	if placed[1] < 10*clean[1] {
		t.Errorf("the chained bridges barely moved the a=0 read on layer 2: clean %v, placed %v", clean[1], placed[1])
	}
}

func mustMap(t *testing.T, rows, cols int) *defect.Map {
	t.Helper()
	m, err := defect.New(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
