package ilp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randomRootModel draws an LP with <= and >= rows (and, with eq, some
// equality rows) over finitely bounded variables. About a third of the
// costs are negative, so the slack basis starts those columns at their
// upper bounds. Right-hand sides sit around a random point of the box,
// mostly on its side of the row, so about one model in ten is
// infeasible.
func randomRootModel(rng *rand.Rand, eq bool) *Model {
	nVars := 2 + rng.Intn(12)
	nCons := 1 + rng.Intn(12)
	mod := NewModel("root")
	x0 := make([]float64, nVars)
	for j := range x0 {
		lo := float64(rng.Intn(5)) - 2
		up := lo + float64(rng.Intn(6))
		cost := math.Round(rng.NormFloat64()*4) / 2
		if rng.Intn(3) == 0 {
			cost = -math.Abs(cost) - 0.5
		}
		mod.AddVar(fmt.Sprintf("x%d", j), lo, up, Continuous, cost)
		x0[j] = lo + rng.Float64()*(up-lo)
	}
	senses := []Sense{LE, GE}
	if eq {
		senses = append(senses, EQ)
	}
	for c := 0; c < nCons; c++ {
		var terms []Term
		ax := 0.0
		for j := 0; j < nVars; j++ {
			if rng.Intn(3) == 0 {
				a := math.Round(rng.NormFloat64() * 3)
				terms = append(terms, Term{j, a})
				ax += a * x0[j]
			}
		}
		if len(terms) == 0 {
			continue
		}
		sense := senses[rng.Intn(len(senses))]
		margin := math.Abs(rng.NormFloat64() * 2)
		if rng.Intn(15) == 0 {
			margin = -margin - 1
		}
		rhs := ax
		switch sense {
		case LE:
			rhs += margin
		case GE:
			rhs -= margin
		}
		mod.AddConstr(fmt.Sprintf("c%d", c), terms, sense, math.Round(rhs))
	}
	return mod
}

// TestSlackRootVsDense is the root path's differential test: on random
// models the slack-basis root (solveRoot) must agree with the dense
// oracle on status and, when optimal, on objective, with a solution
// inside the model. Every model here has finite upper bounds, so every
// root starts warm; most must also end warm, the rest having fallen back
// to the cold path. A model whose negative cost has no upper bound has no
// dual feasible slack basis: its root must take the cold path and still
// agree.
func TestSlackRootVsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ctx := context.Background()
	check := func(name string, mod *Model) bool {
		t.Helper()
		want, err := solveLPDense(ctx, mod, mod.lb, mod.ub)
		if err != nil {
			return false // nothing to compare against
		}
		_, got, cold, err := solveRoot(ctx, mod, mod.lb, mod.ub)
		if err != nil {
			t.Fatalf("%s: root: %v", name, err)
		}
		if got.status != want.status {
			t.Fatalf("%s: dense status %v, root %v", name, want.status, got.status)
		}
		if want.status == StatusOptimal {
			if math.Abs(got.obj-want.obj) > 1e-6 {
				t.Fatalf("%s: dense obj %v, root %v", name, want.obj, got.obj)
			}
			if err := mod.Feasible(got.x, 1e-6, true); err != nil {
				t.Fatalf("%s: root solution: %v", name, err)
			}
		}
		return cold
	}
	compared, cold, optimal, infeasible := 0, 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		mod := randomRootModel(rng, trial%3 == 0)
		if mod.NumConstrs() == 0 {
			continue
		}
		tmpl, err := lowerSparse(mod, mod.lb, mod.ub)
		if err != nil {
			t.Fatal(err)
		}
		if tmpl.slackBasis() == nil {
			t.Fatalf("trial %d: bounded model without a slack basis", trial)
		}
		if check(fmt.Sprintf("trial %d", trial), mod) {
			cold++
		}
		compared++
		res, _ := solveLPDense(ctx, mod, mod.lb, mod.ub)
		switch res.status {
		case StatusOptimal:
			optimal++
		case StatusInfeasible:
			infeasible++
		}
	}
	if compared < 250 || optimal < compared/4 || infeasible < compared/20 || cold > compared/20 {
		t.Fatalf("%d models compared: %d optimal, %d infeasible, %d roots cold; the generator should mix outcomes and most roots stay warm",
			compared, optimal, infeasible, cold)
	}

	// min -x - y s.t. x + y <= 4, x - y >= -2, x in [0, 3], y >= 0 unbounded
	// above: y's negative cost rules out the slack basis.
	mod := NewModel("fallback")
	x := mod.AddVar("x", 0, 3, Continuous, -1)
	y := mod.AddVar("y", 0, math.Inf(1), Continuous, -1)
	mod.AddConstr("cap", []Term{{x, 1}, {y, 1}}, LE, 4)
	mod.AddConstr("tilt", []Term{{x, 1}, {y, -1}}, GE, -2)
	tmpl, err := lowerSparse(mod, mod.lb, mod.ub)
	if err != nil {
		t.Fatal(err)
	}
	if tmpl.slackBasis() != nil {
		t.Fatal("slack basis with a negative cost unbounded above")
	}
	if !check("fallback", mod) {
		t.Fatal("fallback: the root did not take the cold path")
	}
}

// oddCycleCover is the vertex cover model of the disjoint odd cycles of
// the given lengths, with a separator that returns the cycle row
// Σ_{v∈C} x_v >= (|C|+1)/2 of every cycle the LP solution violates. The
// root LP sets every x_v to 1/2; the cycle rows lift it to the integer
// optimum Σ (|C|+1)/2.
func oddCycleCover(lengths ...int) (*Model, func(x []float64) []Constraint, float64) {
	mod := NewModel("cycles")
	var cycles [][]int
	opt := 0.0
	for _, l := range lengths {
		first := mod.NumVars()
		cyc := make([]int, l)
		for k := range cyc {
			cyc[k] = mod.AddVar(fmt.Sprintf("x%d", first+k), 0, 1, Binary, 1)
		}
		for k := range cyc {
			mod.AddConstr("edge", []Term{{cyc[k], 1}, {cyc[(k+1)%l], 1}}, GE, 1)
		}
		cycles = append(cycles, cyc)
		opt += float64(l+1) / 2
	}
	sep := func(x []float64) []Constraint {
		var cuts []Constraint
		for _, cyc := range cycles {
			sum, terms := 0.0, make([]Term, len(cyc))
			for k, v := range cyc {
				sum += x[v]
				terms[k] = Term{v, 1}
			}
			if rhs := float64(len(cyc)+1) / 2; sum < rhs-1e-6 {
				cuts = append(cuts, Constraint{Name: "oddcyc", Terms: terms, Sense: GE, RHS: rhs})
			}
		}
		return cuts
	}
	return mod, sep, opt
}

// TestCutRounds checks the root's cut rounds on the vertex cover of odd
// cycles: the cuts close the root (no branching needed), the optimum is
// the one branch & bound finds without them, and the caller's model is
// left row for row as it was.
func TestCutRounds(t *testing.T) {
	mod, sep, opt := oddCycleCover(3, 5, 7, 9)
	var before strings.Builder
	if err := mod.WriteText(&before); err != nil {
		t.Fatal(err)
	}
	rounds := 0
	counted := func(x []float64) []Constraint { rounds++; return sep(x) }
	sol, err := SolveContext(context.Background(), mod, Options{Separate: counted})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("%v / %v", err, sol.Status)
	}
	// The second call finds the cut root integral and returns no rows.
	if math.Abs(sol.Obj-opt) > 1e-9 || sol.Nodes != 1 || rounds != 2 {
		t.Errorf("obj %v in %d nodes after %d separator calls, want %v in 1 node after 2", sol.Obj, sol.Nodes, rounds, opt)
	}
	if err := mod.Feasible(sol.X, 1e-9, false); err != nil {
		t.Error(err)
	}
	plain, err := SolveContext(context.Background(), mod, Options{})
	if err != nil || plain.Status != StatusOptimal || math.Abs(plain.Obj-opt) > 1e-9 {
		t.Fatalf("without cuts: %v / %v, obj %v", err, plain.Status, plain.Obj)
	}
	if plain.Nodes <= 1 {
		t.Errorf("without cuts the search took %d nodes; the cuts should save some", plain.Nodes)
	}
	var after strings.Builder
	if err := mod.WriteText(&after); err != nil {
		t.Fatal(err)
	}
	if before.String() != after.String() {
		t.Error("the solve changed the caller's model")
	}
}

// TestCutRoundExpires checks the anytime contract of a cut round (DESIGN
// §5b): when the budget ends inside the first round's reoptimization, the
// round is dropped and the solve returns, without an error, the
// incumbent with the bound of the root solved before the round and a
// non-empty trace. TestCutRounds covers the unlimited budget, and
// labeling's TestCutRoundsAnytime every budget through the pipeline.
func TestCutRoundExpires(t *testing.T) {
	mod, sep, _ := oddCycleCover(3, 5, 7, 9)
	inc := make([]float64, mod.NumVars())
	for j := range inc {
		inc[j] = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	expire := func(x []float64) []Constraint {
		cancel()
		return sep(x)
	}
	sol, err := SolveContext(ctx, mod, Options{Incumbent: inc, Separate: expire})
	if err != nil {
		t.Fatal(err)
	}
	if sol.X == nil || mod.Feasible(sol.X, 1e-9, false) != nil {
		t.Fatalf("no valid incumbent (status %v)", sol.Status)
	}
	// The root LP sets every x_v to 1/2: its bound is half the variables.
	root := float64(mod.NumVars()) / 2
	if sol.Status != StatusFeasible || len(sol.Trace) == 0 || math.Abs(sol.Bound-root) > 1e-9 || sol.Bound > sol.Obj {
		t.Errorf("status %v, %d trace events, bound %v, objective %v; want the root's bound %v",
			sol.Status, len(sol.Trace), sol.Bound, sol.Obj, root)
	}
}

// TestExtendBasisWarm checks a cut round's start: the root's optimal
// basis, extended to the model with the separator's rows by making their
// slacks basic, must reoptimize warm, without falling back to the cold
// path, to the dense oracle's optimum of the cut model.
func TestExtendBasisWarm(t *testing.T) {
	ctx := context.Background()
	for _, lengths := range [][]int{{3}, {5, 7}, {3, 5, 7, 9, 11}} {
		mod, sep, _ := oddCycleCover(lengths...)
		tmpl, root, cold, err := solveRoot(ctx, mod, mod.lb, mod.ub)
		if err != nil || cold || root.status != StatusOptimal {
			t.Fatalf("%v: root %v / %v, cold %v", lengths, err, root.status, cold)
		}
		cuts := sep(root.x)
		if len(cuts) != len(lengths) {
			t.Fatalf("%v: %d cuts, want one per cycle", lengths, len(cuts))
		}
		cm := mod.withRows(cuts)
		ct, err := lowerSparse(cm, cm.lb, cm.ub)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ct.solveWarm(ctx, cm.lb, cm.ub, ct.extendBasis(tmpl, root.basis), nil)
		if err != nil || got.status != StatusOptimal {
			t.Fatalf("%v: warm cut round %v / %v", lengths, err, got.status)
		}
		want, err := solveLPDense(ctx, cm, cm.lb, cm.ub)
		if err != nil || math.Abs(got.obj-want.obj) > 1e-9 {
			t.Fatalf("%v: cut LP %v, dense %v (%v)", lengths, got.obj, want.obj, err)
		}
		if got.obj < root.obj+0.5*float64(len(lengths))-1e-9 {
			t.Errorf("%v: cuts lifted the root only from %v to %v", lengths, root.obj, got.obj)
		}
	}
}
