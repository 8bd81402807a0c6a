package ilp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// refactorizeDense is the dense O(m²) reinversion the sparse refactorize
// replaced, kept as its oracle: every column is scattered into a dense
// vector, run through every earlier eta, scanned over all m rows for its
// pivot and swept twice by makeEta. It stores every eta, identities
// included.
func (p *rsLP) refactorizeDense() error {
	order := make([]int, p.m)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := len(p.cols[p.basis[order[a]]].ind), len(p.cols[p.basis[order[b]]].ind)
		if ca != cb {
			return ca < cb
		}
		return p.basis[order[a]] < p.basis[order[b]]
	})
	newEtas := make([]eta, 0, p.m)
	newNNZ := 0
	newBasis := make([]int, p.m)
	rowUsed := make([]bool, p.m)
	w := make([]float64, p.m)
	for _, bi := range order {
		j := p.basis[bi]
		for i := range w {
			w[i] = 0
		}
		col := &p.cols[j]
		for t, i := range col.ind {
			w[i] = col.val[t]
		}
		ftranEtas(newEtas, w)
		r := -1
		best := pivotTol
		for i := 0; i < p.m; i++ {
			if rowUsed[i] {
				continue
			}
			if a := math.Abs(w[i]); a > best {
				best, r = a, i
			}
		}
		if r < 0 {
			return errSingularBasis
		}
		e := makeEta(w, r)
		newEtas = append(newEtas, e)
		newNNZ += len(e.ind) + 1
		rowUsed[r] = true
		newBasis[r] = j
	}
	p.etas, p.etaNNZ, p.pivots = newEtas, newNNZ, 0
	p.basis = newBasis
	p.recomputeXB()
	return nil
}

// reinvCopy copies the state a reinversion reads and writes; the lowering
// itself (cols, b, bounds) is shared read-only.
func reinvCopy(p *rsLP) *rsLP {
	q := *p
	q.status = append([]varStatus(nil), p.status...)
	q.basis = append([]int(nil), p.basis...)
	q.xB = append([]float64(nil), p.xB...)
	q.w = make([]float64, p.m)
	q.y = make([]float64, p.m)
	q.etas = nil
	q.reinv = nil
	return &q
}

// sameFloat is bitwise equality.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkReinversion reinverts p's basis with refactorize and with the dense
// oracle and requires the same outcome: both singular, or the same eta
// file entry for entry — r, pivInv, ind and val, bitwise — once the
// oracle's identity etas are dropped, the same etaNNZ (identities
// counted), the same reordered basis and the same xB bit for bit. It
// reports whether the basis was singular and how many identity etas the
// sparse file left out.
func checkReinversion(t *testing.T, p *rsLP) (singular bool, identities int) {
	t.Helper()
	got, want := reinvCopy(p), reinvCopy(p)
	gerr, werr := got.refactorize(), want.refactorizeDense()
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("sparse reinversion error %v, dense %v", gerr, werr)
	}
	if gerr != nil {
		if !errors.Is(gerr, errSingularBasis) || !errors.Is(werr, errSingularBasis) {
			t.Fatalf("sparse reinversion error %v, dense %v; want errSingularBasis from both", gerr, werr)
		}
		return true, 0
	}
	if got.etaNNZ != want.etaNNZ || got.baseNNZ != got.etaNNZ {
		t.Fatalf("etaNNZ %d (base %d), dense %d", got.etaNNZ, got.baseNNZ, want.etaNNZ)
	}
	var kept []eta
	for _, e := range want.etas {
		if len(e.ind) > 0 || !sameFloat(e.pivInv, 1) {
			kept = append(kept, e)
		}
	}
	if len(got.etas) != len(kept) {
		t.Fatalf("%d etas, dense %d without its %d identities", len(got.etas), len(kept), len(want.etas)-len(kept))
	}
	for k, e := range got.etas {
		d := kept[k]
		if e.r != d.r || !sameFloat(e.pivInv, d.pivInv) || len(e.ind) != len(d.ind) || len(e.val) != len(d.val) {
			t.Fatalf("eta %d: r=%d pivInv=%v with %d entries, dense r=%d pivInv=%v with %d",
				k, e.r, e.pivInv, len(e.ind), d.r, d.pivInv, len(d.ind))
		}
		for x := range e.ind {
			if e.ind[x] != d.ind[x] || !sameFloat(e.val[x], d.val[x]) {
				t.Fatalf("eta %d entry %d: (%d, %v), dense (%d, %v)", k, x, e.ind[x], e.val[x], d.ind[x], d.val[x])
			}
		}
	}
	for i := range got.basis {
		if got.basis[i] != want.basis[i] || !sameFloat(got.xB[i], want.xB[i]) {
			t.Fatalf("row %d: basic column %d at %v, dense %d at %v", i, got.basis[i], got.xB[i], want.basis[i], want.xB[i])
		}
	}
	return false, len(want.etas) - len(kept)
}

// randomBasisLP builds an rsLP with m rows and a random basis of m
// columns. Entries come from a small value set, so magnitudes tie often
// (exercising the lowest-row tie-break) and ±1 singletons give identity
// etas; with some probability a basis column repeats another's row as a
// singleton, duplicates a column or is scaled from one, which makes the
// basis singular. Nonbasic columns sit at random bounds so xB is
// nontrivial.
func randomBasisLP(rng *rand.Rand, m int, density float64) *rsLP {
	vals := []float64{1, -1, 2, -0.5, 3, 0.25, 1e-9}
	n := m + 1 + rng.Intn(m+2)
	p := &rsLP{
		m: m, n: n, nStruct: n, firstArt: n,
		cols: make([]spCol, n),
		b:    make([]float64, m),
		lo:   make([]float64, n), up: make([]float64, n),
		cost:   make([]float64, n),
		status: make([]varStatus, n),
		xB:     make([]float64, m),
		w:      make([]float64, m), y: make([]float64, m),
	}
	for i := range p.b {
		p.b[i] = float64(rng.Intn(7) - 3)
	}
	for j := range p.cols {
		col := &p.cols[j]
		switch {
		case rng.Intn(3) == 0: // a slack- or artificial-like singleton
			col.ind = []int32{int32(rng.Intn(m))}
			col.val = []float64{vals[rng.Intn(2)]}
		case j > 0 && rng.Intn(25) == 0: // a copy or multiple of the previous column
			s := vals[rng.Intn(len(vals)-1)]
			for t, i := range p.cols[j-1].ind {
				col.ind = append(col.ind, i)
				col.val = append(col.val, s*p.cols[j-1].val[t])
			}
		default:
			for i := 0; i < m; i++ {
				if rng.Float64() < density {
					col.ind = append(col.ind, int32(i))
					v := vals[rng.Intn(len(vals))]
					if rng.Intn(4) == 0 {
						v = rng.NormFloat64()
					}
					col.val = append(col.val, v)
				}
			}
		}
		p.lo[j], p.up[j] = 0, float64(1+rng.Intn(3))
		if rng.Intn(2) == 0 {
			p.status[j] = atUpper
		}
	}
	for _, j := range rng.Perm(n)[:m] {
		p.status[j] = isBasic
		p.basis = append(p.basis, j)
	}
	return p
}

// readModelText parses a model written by Model.WriteText.
func readModelText(t testing.TB, path string) *Model {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	num := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return v
	}
	mod := NewModel(path)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		switch f[0] {
		case "var":
			lb, ub, _ := strings.Cut(strings.Trim(f[2], "[]"), ",")
			typ, err := strconv.Atoi(f[3])
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			mod.AddVar(f[1], num(lb), num(ub), VarType(typ), num(f[4]))
		case "row":
			var terms []Term
			for _, tm := range f[2 : len(f)-2] {
				c, v, _ := strings.Cut(tm, "*")
				terms = append(terms, Term{Var: int(num(v)), Coeff: num(c)})
			}
			sense := map[string]Sense{"<=": LE, ">=": GE, "==": EQ}[f[len(f)-2]]
			mod.AddConstr(f[1], terms, sense, num(f[len(f)-1]))
		}
	}
	return mod
}

// eq4Testdata loads a bundled circuit's Eq. 4 model (γ = 0.5, aligned
// SBDD), the model MethodMIP solves for it.
func eq4Testdata(t testing.TB, circuit string) *Model {
	return readModelText(t, "testdata/eq4/"+circuit+".txt")
}

// eq4NodeBases collects reinversion inputs from an Eq. 4 solve: the
// bases the cold root solve holds after a run of iteration caps (phase 1
// with artificials still basic, then phase 2), and the bases a warm
// branch & bound dive installs at each node and ends with.
func eq4NodeBases(t *testing.T, mod *Model, rng *rand.Rand) []*rsLP {
	t.Helper()
	ctx := context.Background()
	var out []*rsLP
	for _, limit := range []int{5, 40, 150, 400, 900, 1500} {
		p, err := lowerSparse(mod, mod.lb, mod.ub)
		if err != nil {
			t.Fatal(err)
		}
		p.maxIters = limit
		phase1 := make([]float64, p.n)
		for j := p.firstArt; j < p.n; j++ {
			phase1[j] = 1
		}
		if err := p.optimize(phase1); err == nil {
			for j := p.firstArt; j < p.n; j++ {
				p.up[j] = 0
			}
			p.activeN = p.firstArt
			p.maxIters += limit
			if err := p.optimize(p.cost); err != nil && !errors.Is(err, errIterLimit) {
				t.Fatal(err)
			}
		} else if !errors.Is(err, errIterLimit) {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	root, err := solveLP(ctx, mod, mod.lb, mod.ub)
	if err != nil || root.status != StatusOptimal {
		t.Fatalf("root: %v / %v", err, root.status)
	}
	tmpl, err := lowerSparse(mod, mod.lb, mod.ub)
	if err != nil {
		t.Fatal(err)
	}
	lbs := append([]float64(nil), mod.lb...)
	ubs := append([]float64(nil), mod.ub...)
	last := root
	for node := 0; node < 24; node++ {
		// Branch on the last node's most fractional variable, in a random
		// direction; an infeasible or integral node restarts at the root.
		v, frac := -1, 1e-6
		for j, x := range last.x {
			if f := math.Abs(x - math.Round(x)); f > frac {
				v, frac = j, f
			}
		}
		if v < 0 {
			copy(lbs, mod.lb)
			copy(ubs, mod.ub)
			last = root
			continue
		}
		if rng.Intn(2) == 0 {
			ubs[v] = math.Floor(last.x[v])
		} else {
			lbs[v] = math.Ceil(last.x[v])
		}
		p, err := tmpl.warmNode(lbs, ubs, last.basis)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
		res, err := tmpl.solveWarm(ctx, lbs, ubs, last.basis, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.status != StatusOptimal {
			copy(lbs, mod.lb)
			copy(ubs, mod.ub)
			last = root
			continue
		}
		if p, err = tmpl.warmNode(lbs, ubs, res.basis); err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
		last = res
	}
	return out
}

// TestRefactorizeMatchesDense pins the sparse reinversion to the dense
// oracle: on random sparse bases, singular ones included, and on bases
// from the Eq. 4 solves of ctrl and cavlc, both produce the same eta file
// bit for bit (identities aside) or both report a singular basis.
func TestRefactorizeMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	singular, identities := 0, 0
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		m := 1 + rng.Intn(40)
		sing, ids := checkReinversion(t, randomBasisLP(rng, m, []float64{0.05, 0.15, 0.4}[rng.Intn(3)]))
		if sing {
			singular++
		}
		identities += ids
	}
	if singular < trials/20 || singular > trials-trials/20 || identities == 0 {
		t.Fatalf("%d of %d random bases singular, %d identity etas; the generator should give a real mix", singular, trials, identities)
	}
	for _, circuit := range []string{"ctrl", "cavlc"} {
		bases := eq4NodeBases(t, eq4Testdata(t, circuit), rng)
		if len(bases) < 30 {
			t.Fatalf("%s: only %d bases collected", circuit, len(bases))
		}
		identities := 0
		for _, p := range bases {
			sing, ids := checkReinversion(t, p)
			if sing {
				t.Fatalf("%s: an Eq. 4 basis is singular", circuit)
			}
			identities += ids
		}
		if identities == 0 {
			t.Fatalf("%s: no identity eta in %d bases", circuit, len(bases))
		}
	}
}

// FuzzRefactorizeVsDense is TestRefactorizeMatchesDense's random-basis
// property over fuzzed sizes, densities and seeds.
func FuzzRefactorizeVsDense(f *testing.F) {
	f.Add(uint8(5), uint8(40), int64(1))
	f.Add(uint8(30), uint8(10), int64(2))
	f.Add(uint8(64), uint8(120), int64(3))
	f.Fuzz(func(t *testing.T, m, density uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		checkReinversion(t, randomBasisLP(rng, 1+int(m)%80, float64(density)/255))
	})
}

// TestEq4RootLPWork pins the work of the Eq. 4 root LPs in pivots and
// reinversions, not wall clock, on both root paths. The production path
// (solveRoot) is the dual simplex from the slack basis; it must solve
// every root warm, int2float's included. From the all-artificial basis
// int2float's root took ~14,700 pivots, most of them in phase 1. The cold
// two-phase solveLP stays the fallback, so its pins stay too: ctrl and
// cavlc solved whole, and int2float's first 4,000 phase-1 pivots, where
// under a fixed 16m+1024 eta budget its PFI fill (17–24k nonzeros after
// reinversion, above that budget's 20,112) forced a reinversion every
// pivot or two from about pivot 3,500 on — 273 reinversions by pivot
// 4,000 — where the fill-relative budget needs 41. Each ceiling is about
// twice the count measured. Each warm root is
// certified optimal by weak duality on the model's own rows (dualBound),
// and ctrl's and cavlc's are also checked against the dense oracle. The
// dense oracle takes ~38 s on int2float, where it gives 193.5 too.
func TestEq4RootLPWork(t *testing.T) {
	cases := []struct {
		circuit                   string
		coldPrefix                int // > 0: the cold path runs only this many pivots, and no dense oracle
		coldPivots, coldRefactors int
		pivots, refactors         int
		obj                       float64 // root LP optimum
	}{
		// measured: cold 898 pivots, 9 reinversions; warm 367 and 5
		{"ctrl", 0, 1800, 18, 740, 10, 67.25},
		// measured: cold 1,290 pivots, 16 reinversions; warm 397 and 6
		{"cavlc", 0, 2600, 32, 800, 12, 76.5},
		// measured: cold 41 reinversions in 4,000 pivots; warm 1,174
		// pivots, 14 reinversions
		{"int2float", 4000, 0, 82, 2400, 28, 193.5},
	}
	ctx := context.Background()
	for _, c := range cases {
		mod := eq4Testdata(t, c.circuit)
		tmpl, res, cold, err := solveRoot(ctx, mod, mod.lb, mod.ub)
		if err != nil || res.status != StatusOptimal || cold {
			t.Fatalf("%s: root LP %v / %v, cold %v", c.circuit, err, res.status, cold)
		}
		if res.iters > c.pivots || res.refactors > c.refactors {
			t.Errorf("%s: root LP took %d pivots and %d reinversions, ceilings %d and %d",
				c.circuit, res.iters, res.refactors, c.pivots, c.refactors)
		}
		if math.Abs(res.obj-c.obj) > 1e-6 {
			t.Errorf("%s: root LP optimum %v, want %v", c.circuit, res.obj, c.obj)
		}
		if err := mod.Feasible(res.x, 1e-6, true); err != nil {
			t.Errorf("%s: root LP solution: %v", c.circuit, err)
		}
		if lb := dualBound(t, mod, tmpl, res); lb < res.obj-1e-6 {
			t.Errorf("%s: root LP optimum %v, but its basis proves only %v", c.circuit, res.obj, lb)
		}
		if c.coldPrefix > 0 {
			p, err := lowerSparse(mod, mod.lb, mod.ub)
			if err != nil {
				t.Fatal(err)
			}
			p.maxIters = c.coldPrefix
			phase1 := make([]float64, p.n)
			for j := p.firstArt; j < p.n; j++ {
				phase1[j] = 1
			}
			if err := p.optimize(phase1); !errors.Is(err, errIterLimit) {
				t.Fatalf("%s: phase 1 ended within %d pivots (%v); the prefix no longer reaches the dense fill", c.circuit, c.coldPrefix, err)
			}
			if p.refactors > c.coldRefactors {
				t.Errorf("%s: %d reinversions in the first %d pivots, ceiling %d", c.circuit, p.refactors, c.coldPrefix, c.coldRefactors)
			}
			continue
		}
		dense, err := solveLPDense(ctx, mod, mod.lb, mod.ub)
		if err != nil || dense.status != StatusOptimal || math.Abs(dense.obj-c.obj) > 1e-6 {
			t.Errorf("%s: dense root LP %v / %v, optimum %v", c.circuit, err, dense.status, dense.obj)
		}
		res, err = solveLP(ctx, mod, mod.lb, mod.ub)
		if err != nil || res.status != StatusOptimal {
			t.Fatalf("%s: cold root LP %v / %v", c.circuit, err, res.status)
		}
		if res.iters > c.coldPivots || res.refactors > c.coldRefactors {
			t.Errorf("%s: cold root LP took %d pivots and %d reinversions, ceilings %d and %d",
				c.circuit, res.iters, res.refactors, c.coldPivots, c.coldRefactors)
		}
		if math.Abs(res.obj-c.obj) > 1e-6 {
			t.Errorf("%s: cold root LP optimum %v, want %v", c.circuit, res.obj, c.obj)
		}
	}
}

// dualBound returns the lower bound that the optimal LP res, solved on
// the lowering tmpl of mod, proves by weak duality, computed on the
// model's own rows: the multipliers B⁻ᵀc_B of res's basis, mapped back
// through each row's lowering sign and forced to the row's dual sign
// (>= rows nonnegative, <= rows nonpositive), and every reduced cost
// charged at the variable bound it prefers. Any multipliers of those
// signs give a valid bound, so a bound equal to res's objective certifies
// its optimality without trusting the simplex that found it.
func dualBound(t *testing.T, mod *Model, tmpl *rsLP, res lpResult) float64 {
	t.Helper()
	p, err := tmpl.warmNode(mod.lb, mod.ub, res.basis)
	if err != nil {
		t.Fatal(err)
	}
	if res.factor == nil || !p.install(res.factor) {
		if err := p.refactorize(); err != nil {
			t.Fatal(err)
		}
	}
	y := make([]float64, p.m)
	for i, b := range p.basis {
		y[i] = p.cost[b]
	}
	p.btran(y)
	d := append([]float64(nil), mod.obj...)
	bound := 0.0
	for i, c := range mod.constrs {
		// The lowering scaled row i by ±1: find the factor on its first term.
		col := &tmpl.cols[c.Terms[0].Var]
		scale := 0.0
		for k, r := range col.ind {
			if int(r) == i {
				scale = col.val[k] / c.Terms[0].Coeff
			}
		}
		pi := y[i] * scale
		if (c.Sense == GE && pi < 0) || (c.Sense == LE && pi > 0) {
			pi = 0
		}
		bound += pi * c.RHS
		for _, term := range c.Terms {
			d[term.Var] -= pi * term.Coeff
		}
	}
	for j, dj := range d {
		if dj >= 0 {
			bound += dj * mod.lb[j]
		} else {
			bound += dj * mod.ub[j]
		}
	}
	return bound
}
