package xbar

import (
	"fmt"

	"compact/internal/bdd"
	"compact/internal/invariant"
	"compact/internal/logic"
)

// The sneak-path kernel
//
// Every crossbar shape in this module computes by one rule: an output
// reads 1 iff a chain of conducting devices joins its wire to the driven
// input wire. A Design of any layer count and each tile of a
// partition.Plan differ only in how they number their nanowires, so each
// compiles itself once into a Wires graph — its wires numbered 0..N-1,
// one edge per non-Off device in its own cell order — and every evaluator
// runs here, on the compiled graph: the scalar union-find Eval, the
// 64-assignment bitset sweep Eval64, the symbolic BDD Closure and the
// formal proof.

// Wires is a compiled nanowire graph. Owners build it with NewWires and
// Add, set Err for malformed shapes, and must not change it once it is
// published: evaluators share it without locking.
type Wires struct {
	// N is the wire count.
	N int
	// Edges holds one edge per non-Off device, in the owner's cell order
	// (the order the sweeps and the closure iterate in).
	Edges []Edge
	// Input is the driven wire; Outputs holds one sensed wire per output.
	Input   int
	Outputs []int
	// MaxVar is the largest literal variable (-1 when there is none);
	// assignments must cover it.
	MaxVar int32
	// Err is the first structural corruption found while compiling — a
	// corrupted cell or a malformed shape. Every evaluator refuses a graph
	// that carries one.
	Err error
}

// Edge is one device: entry E joins wires A and B.
type Edge struct {
	A, B int32
	E    Entry
}

// NewWires starts an edgeless graph of n wires.
func NewWires(n, input int, outputs []int) *Wires {
	return &Wires{N: n, Edges: []Edge{}, Input: input, Outputs: outputs, MaxVar: -1}
}

// Add appends the device e joining wires a and b; Off devices carry no
// edge. A corrupted entry — an unknown Kind, or a literal with a negative
// variable — never conducts, so without a check a corrupted in-memory
// design would silently evaluate (and even verify, on lucky samples) as a
// constant. The first one sets Err instead, naming the cell at describes.
func (w *Wires) Add(a, b int, e Entry, at func() string) {
	if e.Kind == Off {
		return
	}
	w.Edges = append(w.Edges, Edge{int32(a), int32(b), e})
	switch {
	case e.Kind > Lit:
		if w.Err == nil {
			w.Err = invariant.Violationf("xbar.cell-kind", "cell %s has unknown kind %d", at(), e.Kind)
		}
	case e.Kind == Lit && e.Var < 0:
		if w.Err == nil {
			w.Err = invariant.Violationf("xbar.cell-var", "cell %s references negative variable %d", at(), e.Var)
		}
	case e.Kind == Lit && e.Var > w.MaxVar:
		w.MaxVar = e.Var
	}
}

// check reports why the graph cannot be evaluated over nVars variables.
func (w *Wires) check(nVars int) error {
	if w.Err != nil {
		return w.Err
	}
	if int(w.MaxVar) >= nVars {
		return invariant.Violationf("xbar.eval-assignment",
			"assignment has %d entries but the design references variable %d", nVars, w.MaxVar)
	}
	return nil
}

// Eval evaluates every output under one assignment (indexed by Entry.Var)
// by union-find over the wires: the scalar reference every faster
// evaluator is checked against.
func (w *Wires) Eval(assignment []bool) ([]bool, error) {
	if err := w.check(len(assignment)); err != nil {
		return nil, err
	}
	out := make([]bool, len(w.Outputs))
	if len(out) == 0 {
		return out, nil // nothing sensed, nothing to drive
	}
	parent := make([]int, w.N)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range w.Edges {
		if e.E.Conducts(assignment) {
			if ra, rb := find(int(e.A)), find(int(e.B)); ra != rb {
				parent[ra] = rb
			}
		}
	}
	in := find(w.Input)
	for i, o := range w.Outputs {
		out[i] = find(o) == in
	}
	return out, nil
}

// Eval64 evaluates every output under 64 assignments at once: words[i]
// carries variable i, bit b of it the value under assignment b, and the
// result holds one word per output. Instead of union-find per assignment
// it computes a bitset fixpoint — reach[w] holds, per bit, whether wire w
// connects to the input — where every edge propagates reachability
// between its wires masked by its 64-assignment conduction word. A
// forward sweep alone needs one pass per hop of the longest sneak path
// running against the cell order; alternating forward and backward
// sweeps halves that on zig-zag paths. Each sweep either sets a new bit
// (at most 64·N of them) or proves the fixpoint, so the amortized cost
// per assignment is ~64× below Eval (FuzzEval64VsScalar pins the two
// together). The result is the caller's; a sequence of calls allocates
// less through an Evaluator.
func (w *Wires) Eval64(words []uint64) ([]uint64, error) {
	return w.NewEvaluator().Eval64(words)
}

// Evaluator runs Eval64 on one graph with scratch it keeps between
// calls, so a verification sweep allocates it once, not once per batch.
// The graph stays shared and immutable; an Evaluator is one caller's and
// is not safe for concurrent use.
type Evaluator struct {
	w                 *Wires
	out, masks, reach []uint64
}

// NewEvaluator returns an Evaluator over w.
func (w *Wires) NewEvaluator() *Evaluator { return &Evaluator{w: w} }

// Eval64 is Wires.Eval64 on the evaluator's scratch: the returned slice
// is overwritten by the next call, so read it before calling again.
func (ev *Evaluator) Eval64(words []uint64) ([]uint64, error) {
	w := ev.w
	if err := w.check(len(words)); err != nil {
		return nil, err
	}
	if len(w.Outputs) == 0 {
		return []uint64{}, nil // nothing sensed, nothing to drive
	}
	if ev.out == nil {
		ev.out = make([]uint64, len(w.Outputs))
		ev.masks = make([]uint64, len(w.Edges))
		ev.reach = make([]uint64, w.N)
	}
	out, masks, reach := ev.out, ev.masks, ev.reach
	for i, e := range w.Edges {
		masks[i] = e.E.conduct64(words)
	}
	clear(reach)
	reach[w.Input] = ^uint64(0)
	for {
		changed := false
		for i, e := range w.Edges {
			m := masks[i]
			if m == 0 {
				continue
			}
			u := (reach[e.A] | reach[e.B]) & m
			if u&^reach[e.A] != 0 {
				reach[e.A] |= u
				changed = true
			}
			if u&^reach[e.B] != 0 {
				reach[e.B] |= u
				changed = true
			}
		}
		if !changed {
			break
		}
		changed = false
		for i := len(w.Edges) - 1; i >= 0; i-- {
			m := masks[i]
			if m == 0 {
				continue
			}
			e := w.Edges[i]
			u := (reach[e.A] | reach[e.B]) & m
			if u&^reach[e.A] != 0 {
				reach[e.A] |= u
				changed = true
			}
			if u&^reach[e.B] != 0 {
				reach[e.B] |= u
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for i, o := range w.Outputs {
		out[i] = reach[o]
	}
	return out, nil
}

// conduct64 is Entry.Conducts over 64 assignments at once: bit b of the
// result reports whether the cell conducts under assignment b of words.
func (e Entry) conduct64(words []uint64) uint64 {
	switch e.Kind {
	case On:
		return ^uint64(0)
	case Lit:
		if e.Var < 0 || int(e.Var) >= len(words) {
			return 0
		}
		if e.Neg {
			return ^words[e.Var]
		}
		return words[e.Var]
	default:
		return 0
	}
}

// Closure computes the exact Boolean function each output realizes, as
// canonical BDDs in m: a symbolic sneak-path fixpoint covering every
// assignment at once. conn(w) is the predicate "wire w connects to the
// input"; every edge with literal l contributes conn(a) |= l ∧ conn(b)
// and conn(b) |= l ∧ conn(a), swept in cell order to the least fixpoint.
// vars[v] is the function driving literal variable v — a manager
// variable for a design, the upstream net's function for a partition
// tile. A blow-up past m's node limit returns an error wrapping
// bdd.ErrNodeLimit. (A function rather than a method, so the façade's
// Design.Wires does not put the BDD manager on the public API surface.)
func Closure(w *Wires, m *bdd.Manager, vars []bdd.Node) (outs []bdd.Node, err error) {
	if err := w.check(len(vars)); err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			outs, err = nil, fmt.Errorf("symbolic closure: %w", bdd.BoundaryError(r))
		}
	}()
	outs = make([]bdd.Node, len(w.Outputs))
	if len(outs) == 0 {
		return outs, nil
	}
	lits := make([]bdd.Node, len(w.Edges))
	for i, e := range w.Edges {
		switch e.E.Kind {
		case On:
			lits[i] = bdd.One
		case Lit:
			lits[i] = vars[e.E.Var]
			if e.E.Neg {
				lits[i] = m.Not(lits[i])
			}
		}
	}
	conn := make([]bdd.Node, w.N) // all bdd.Zero
	conn[w.Input] = bdd.One
	for {
		changed := false
		for i, e := range w.Edges {
			l, a, b := lits[i], e.A, e.B
			if na := m.Or(conn[a], m.And(l, conn[b])); na != conn[a] {
				conn[a] = na
				changed = true
			}
			if nb := m.Or(conn[b], m.And(l, conn[a])); nb != conn[b] {
				conn[b] = nb
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for i, o := range w.Outputs {
		outs[i] = conn[o]
	}
	return outs, nil
}

// FormalVerify proves, for every input assignment, that the graph
// computes nw's outputs; literal variable v is network input v.
func (w *Wires) FormalVerify(nw *logic.Network, nodeLimit int) error {
	return Prove(nw, nodeLimit, func(m *bdd.Manager, inputs []bdd.Node) ([]bdd.Node, error) {
		return Closure(w, m, inputs)
	})
}

// Prove is the one formal comparison behind every FormalVerify. It builds
// a BDD manager in bdd.DFSOrder(nw) — the order synthesis builds in, under
// which the sneak-path closure stays small — and asks outputs for the
// candidate's output functions, given one manager variable per network
// input (inputs[i] is input i, at level pos[i] of the order). It then
// builds the network's own outputs in the same manager, where equal
// functions are equal nodes. A disagreement names the first differing
// output and a witness assignment in network-input order. nodeLimit
// bounds the manager (0 = 4M nodes); a blow-up returns an error wrapping
// bdd.ErrNodeLimit.
func Prove(nw *logic.Network, nodeLimit int, outputs func(m *bdd.Manager, inputs []bdd.Node) ([]bdd.Node, error)) (err error) {
	if nodeLimit <= 0 {
		nodeLimit = 4_000_000
	}
	order := bdd.DFSOrder(nw)
	inNames := nw.InputNames()
	names := make([]string, len(order))
	for level, i := range order {
		names[level] = inNames[i]
	}
	m := bdd.New(names)
	m.SetNodeLimit(nodeLimit)
	defer func() {
		if r := recover(); r != nil {
			err = bdd.BoundaryError(r)
		}
	}()
	inputs := make([]bdd.Node, len(order))
	for level, i := range order {
		inputs[i] = m.Var(level)
	}
	got, err := outputs(m, inputs)
	if err != nil {
		return err
	}
	want, err := m.BuildRoots(nw, order)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("output count mismatch: %d vs %d", len(got), len(want))
	}
	for o := range want {
		if got[o] == want[o] {
			continue
		}
		sat := m.AnySat(m.Xor(got[o], want[o]))
		witness := make([]bool, len(order))
		for level, i := range order {
			witness[i] = sat[level]
		}
		return fmt.Errorf("output %q differs from the network, e.g. on input %v", nw.OutputNames[o], witness)
	}
	return nil
}
