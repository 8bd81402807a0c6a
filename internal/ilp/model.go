// Package ilp is a self-contained 0-1/mixed-integer linear program solver,
// standing in for CPLEX in the COMPACT reproduction. It combines a sparse
// bounded-variable revised simplex for LP relaxations with best-first
// branch & bound that reoptimizes every node from its parent's optimal
// basis with a dual simplex, and reports the anytime convergence
// data (best integer, best bound, relative gap over time) that the
// paper's Figures 10 and 11 plot.
//
// The solver is exact but not industrial: it targets the model sizes used
// by this repository's benchmark suite (thousands of variables). Larger
// models are still handled correctly via the context's deadline, returning
// the best incumbent with a proven bound and gap.
package ilp

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"time"

	"compact/internal/errio"
)

// VarType distinguishes continuous from integrality-constrained variables.
type VarType uint8

// Variable kinds.
const (
	Continuous VarType = iota
	Integer
	Binary // shorthand for Integer with bounds [0,1]
)

// Sense is a linear constraint's comparison operator.
type Sense uint8

// Constraint senses.
const (
	LE Sense = iota // <=
	GE              // >=
	EQ              // ==
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return "=="
	}
}

// Term is one coefficient–variable product in a linear expression.
type Term struct {
	Var   int
	Coeff float64
}

// Constraint is sum(Terms) Sense RHS.
type Constraint struct {
	Terms []Term
	Sense Sense
	RHS   float64
	Name  string
}

// Model is a minimization MILP: min c·x s.t. constraints, bounds, types.
type Model struct {
	Name    string
	obj     []float64
	lb, ub  []float64
	vtype   []VarType
	names   []string
	constrs []Constraint
}

// NewModel creates an empty model (objective sense: minimize).
func NewModel(name string) *Model { return &Model{Name: name} }

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.obj) }

// NumConstrs returns the number of constraints.
func (m *Model) NumConstrs() int { return len(m.constrs) }

// AddVar appends a variable and returns its index. For Binary variables the
// given bounds are clamped to [0,1].
func (m *Model) AddVar(name string, lb, ub float64, typ VarType, obj float64) int {
	if typ == Binary {
		lb, ub = math.Max(lb, 0), math.Min(ub, 1)
	}
	if lb > ub {
		//lint:ignore panicfree model-construction precondition: bounds come from code, not input data
		panic(fmt.Sprintf("ilp: variable %q has lb %v > ub %v", name, lb, ub))
	}
	m.obj = append(m.obj, obj)
	m.lb = append(m.lb, lb)
	m.ub = append(m.ub, ub)
	m.vtype = append(m.vtype, typ)
	m.names = append(m.names, name)
	return len(m.obj) - 1
}

// withRows returns a copy of m with rows appended. The copy shares m's
// variables, which neither may change afterwards; m keeps its rows.
func (m *Model) withRows(rows []Constraint) *Model {
	c := *m
	c.constrs = slices.Clip(m.constrs)
	for _, r := range rows {
		c.AddConstr(r.Name, r.Terms, r.Sense, r.RHS)
	}
	return &c
}

// VarName returns the name of variable v.
func (m *Model) VarName(v int) string { return m.names[v] }

// AddConstr appends a constraint. Terms referring to out-of-range variables
// panic. Duplicate variables within one constraint are summed.
func (m *Model) AddConstr(name string, terms []Term, sense Sense, rhs float64) {
	merged := make(map[int]float64)
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(m.obj) {
			//lint:ignore panicfree model-construction precondition: term indices come from AddVar results
			panic(fmt.Sprintf("ilp: constraint %q references unknown variable %d", name, t.Var))
		}
		merged[t.Var] += t.Coeff
	}
	out := make([]Term, 0, len(merged))
	for _, t := range terms { // preserve first-occurrence order
		if c, ok := merged[t.Var]; ok {
			if !zero(c) {
				out = append(out, Term{t.Var, c})
			}
			delete(merged, t.Var)
		}
	}
	m.constrs = append(m.constrs, Constraint{Terms: out, Sense: sense, RHS: rhs, Name: name})
}

// WriteText writes the model one line per variable (name, bounds, type,
// objective coefficient) and then one line per constraint (name, terms,
// sense, right-hand side), in insertion order. Floats print in their
// shortest round-trip form, so two models write equal text exactly when
// they are the same model row for row.
func (m *Model) WriteText(w io.Writer) error {
	ew := errio.NewWriter(w)
	for v := range m.obj {
		ew.Printf("var %s [%v,%v] %d %v\n", m.names[v], m.lb[v], m.ub[v], m.vtype[v], m.obj[v])
	}
	for _, c := range m.constrs {
		ew.Printf("row %s", c.Name)
		for _, t := range c.Terms {
			ew.Printf(" %v*%d", t.Coeff, t.Var)
		}
		ew.Printf(" %s %v\n", c.Sense, c.RHS)
	}
	return ew.Err()
}

// Objective evaluates c·x.
func (m *Model) Objective(x []float64) float64 {
	v := 0.0
	for i, c := range m.obj {
		v += c * x[i]
	}
	return v
}

// Feasible reports whether x satisfies all constraints, bounds and (unless
// relaxed) integrality, within tolerance tol.
func (m *Model) Feasible(x []float64, tol float64, relaxed bool) error {
	if len(x) != len(m.obj) {
		return fmt.Errorf("ilp: solution has %d entries, want %d", len(x), len(m.obj))
	}
	for i := range x {
		if x[i] < m.lb[i]-tol || x[i] > m.ub[i]+tol {
			return fmt.Errorf("ilp: %s = %v outside [%v, %v]", m.names[i], x[i], m.lb[i], m.ub[i])
		}
		if !relaxed && m.vtype[i] != Continuous {
			if math.Abs(x[i]-math.Round(x[i])) > tol {
				return fmt.Errorf("ilp: %s = %v not integral", m.names[i], x[i])
			}
		}
	}
	for _, c := range m.constrs {
		lhs := 0.0
		for _, t := range c.Terms {
			lhs += t.Coeff * x[t.Var]
		}
		ok := true
		switch c.Sense {
		case LE:
			ok = lhs <= c.RHS+tol
		case GE:
			ok = lhs >= c.RHS-tol
		case EQ:
			ok = math.Abs(lhs-c.RHS) <= tol
		}
		if !ok {
			return fmt.Errorf("ilp: constraint %q violated: %v %s %v", c.Name, lhs, c.Sense, c.RHS)
		}
	}
	return nil
}

// Status describes the outcome of a solve.
type Status uint8

// SolveContext outcomes.
const (
	StatusOptimal    Status = iota // proven optimal
	StatusFeasible                 // stopped early with an incumbent
	StatusInfeasible               // no feasible solution exists
	StatusUnbounded                // objective unbounded below
	StatusNoSolution               // stopped early without an incumbent
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	default:
		return "no-solution"
	}
}

// TraceEvent is one sample of the solver's convergence, matching the data
// plotted in the paper's Figure 10: the incumbent (best integer), the best
// bound, and the relative gap at a point in time.
type TraceEvent struct {
	Elapsed   time.Duration
	Incumbent float64 // +Inf while no incumbent exists
	Bound     float64
	Gap       float64 // relative gap in [0,1]; 1 while no incumbent
	Nodes     int
}

// Solution is the result of SolveContext.
type Solution struct {
	Status  Status
	X       []float64
	Obj     float64
	Bound   float64 // proven lower bound on the optimum
	Gap     float64
	Nodes   int // branch & bound nodes processed
	Iters   int // total simplex iterations
	Elapsed time.Duration
	Trace   []TraceEvent

	// ColdNodes counts branch & bound node LPs solved from scratch rather
	// than reoptimized from the parent's basis: nodes without a basis, and
	// nodes whose warm dual simplex failed numerically.
	ColdNodes int
	// Refactors counts the sparse simplex's basis reinversions over every
	// LP solve, the root included: periodic ones, a warm start's install
	// and each solve's final one. A warm start that installs its parent's
	// factor from one of the search's two slots does no reinversion and
	// is not counted.
	Refactors int
}

// Options tunes SolveContext. The search's only budget is its context.
type Options struct {
	// Incumbent optionally provides a known feasible solution to prime the
	// search (e.g. the all-VH labeling, which is always feasible).
	Incumbent []float64
	// BestKnown, when non-nil, is polled at every node expansion and must
	// return the objective of the best solution known *outside* this solve
	// (+Inf when none) — e.g. a portfolio sibling's incumbent. Nodes whose
	// LP bound cannot beat it are pruned, but the reported Bound stays
	// honest: externally pruned subtrees never raise it above the external
	// value. The callback must be safe for concurrent use; it is typically
	// an atomic load.
	BestKnown func() float64
	// Separate, when non-nil, is the model's cut separator. After the
	// root LP it is called with the LP solution x, for a few rounds, and
	// returns rows that x violates but every feasible integral solution
	// satisfies (none when it finds none). Each round's rows join an
	// internal copy of the model, whose LP is reoptimized before the
	// next round; the caller's model is left as it was. The search then
	// runs on the copy, so the proven bound and every node LP include the
	// cuts. It is called from one goroutine and must not keep x.
	Separate func(x []float64) []Constraint
}

// defaultWorkers is the branch & bound worker count: up to four, but
// never more than the schedulable CPUs, so on a single-core box the search
// stays the exact serial algorithm (and fully deterministic) at zero
// coordination cost. Workers share one best-first heap (equal bounds pop
// newest first), one incumbent and the two slots of recently branched
// nodes' factors; the result is identical to serial up to incumbent ties
// (equal-objective optima and, when the context ends the search, how far
// it got). Parallel search is race-clean: the model and the slotted
// factors are only read, and all search state is lock-protected.
func defaultWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > 4 {
		w = 4
	}
	return w
}

// relGap computes the relative MIP gap.
func relGap(incumbent, bound float64) float64 {
	if math.IsInf(incumbent, 1) {
		return 1
	}
	denom := math.Max(math.Abs(incumbent), 1e-9)
	g := (incumbent - bound) / denom
	if g < 0 {
		return 0
	}
	if g > 1 {
		return 1
	}
	return g
}
