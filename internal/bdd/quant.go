package bdd

import (
	"fmt"

	"compact/internal/logic"
)

// Exists returns ∃v. f — the disjunction of both cofactors of f on v.
func (m *Manager) Exists(f Node, v int) Node {
	m.checkVar(v)
	return m.Or(m.Restrict(f, v, false), m.Restrict(f, v, true))
}

// Forall returns ∀v. f — the conjunction of both cofactors of f on v.
func (m *Manager) Forall(f Node, v int) Node {
	m.checkVar(v)
	return m.And(m.Restrict(f, v, false), m.Restrict(f, v, true))
}

// ExistsSet existentially quantifies a set of variable levels.
func (m *Manager) ExistsSet(f Node, vars []int) Node {
	for _, v := range vars {
		f = m.Exists(f, v)
	}
	return f
}

// ForallSet universally quantifies a set of variable levels.
func (m *Manager) ForallSet(f Node, vars []int) Node {
	for _, v := range vars {
		f = m.Forall(f, v)
	}
	return f
}

// AnySat returns one satisfying assignment of f (indexed by level, with
// unconstrained variables set to false), or nil if f is unsatisfiable.
func (m *Manager) AnySat(f Node) []bool {
	if f == Zero {
		return nil
	}
	assignment := make([]bool, m.NumVars())
	for f > One {
		d := m.nodes[f]
		if d.low != Zero {
			f = d.low
		} else {
			assignment[d.level] = true
			f = d.high
		}
	}
	return assignment
}

// Equivalent reports whether two networks with identical input and output
// signatures compute the same functions, by canonical shared-BDD
// comparison — the formal check behind the c499/c1355 pair and the
// round-trip tests. Inputs and outputs are matched by name; an error
// describes any signature mismatch or resource blow-up. When the networks
// differ, a witness input assignment (in a's input order) is returned.
func Equivalent(a, b *logic.Network, nodeLimit int) (equal bool, witness []bool, err error) {
	if a.NumInputs() != b.NumInputs() || a.NumOutputs() != b.NumOutputs() {
		return false, nil, fmt.Errorf("bdd: I/O signature mismatch: %d/%d vs %d/%d",
			a.NumInputs(), a.NumOutputs(), b.NumInputs(), b.NumOutputs())
	}
	// Build both in ONE manager so equality is pointer equality.
	orderA := DFSOrder(a)
	mgr, rootsA, err := BuildNetwork(a, orderA, nodeLimit)
	if err != nil {
		return false, nil, err
	}
	// b's inputs mapped onto a's variable levels by name.
	orderB := make([]int, b.NumInputs())
	for level, aIdx := range orderA {
		name := a.InputNames()[aIdx]
		bIdx := b.InputIndex(name)
		if bIdx < 0 {
			return false, nil, fmt.Errorf("bdd: input %q missing from second network", name)
		}
		orderB[level] = bIdx
	}
	rootsB, err := buildInto(mgr, b, orderB)
	if err != nil {
		return false, nil, err
	}
	for i, ra := range rootsA {
		oName := a.OutputNames[i]
		j := b.OutputIndex(oName)
		if j < 0 {
			return false, nil, fmt.Errorf("bdd: output %q missing from second network", oName)
		}
		if ra != rootsB[j] {
			diff := mgr.Xor(ra, rootsB[j])
			sat := mgr.AnySat(diff)
			// Map the level-indexed witness back to a's input order.
			w := make([]bool, a.NumInputs())
			for level, aIdx := range orderA {
				w[aIdx] = sat[level]
			}
			return false, w, nil
		}
	}
	return true, nil, nil
}

// BuildRoots constructs the network's output functions inside this
// manager. order maps manager levels to network input indices (nil means
// level i = input i); the manager must declare at least NumInputs
// variables. BuildNetwork builds every shared BDD through it, and the
// symbolic crossbar verifier uses it to compare a design's sneak-path
// function against its source network inside one canonical node space.
//
//lint:ignore ctxbound bounded by the receiving Manager's node limit (SetNodeLimit)
func (m *Manager) BuildRoots(nw *logic.Network, order []int) (roots []Node, err error) {
	defer func() {
		if r := recover(); r != nil {
			roots, err = nil, BoundaryError(r)
		}
	}()
	if order == nil {
		order = make([]int, nw.NumInputs())
		for i := range order {
			order[i] = i
		}
	}
	if len(order) != nw.NumInputs() || m.NumVars() < nw.NumInputs() {
		return nil, fmt.Errorf("bdd: BuildRoots order/variable mismatch (%d inputs, %d levels, %d vars)",
			nw.NumInputs(), len(order), m.NumVars())
	}
	return buildInto(m, nw, order)
}

// buildInto constructs b's outputs inside an existing manager, with
// orderB[level] giving b's input index for each manager level.
func buildInto(m *Manager, nw *logic.Network, orderB []int) ([]Node, error) {
	inputLevel := make([]int, nw.NumInputs())
	for level, idx := range orderB {
		inputLevel[idx] = level
	}
	vals := make([]Node, nw.NumGates())
	for i, id := range nw.Inputs {
		vals[id] = m.Var(inputLevel[i])
	}
	for gi, g := range nw.Gates {
		var v Node
		switch g.Type {
		case logic.Input:
			continue
		case logic.Const0:
			v = Zero
		case logic.Const1:
			v = One
		case logic.Buf:
			v = vals[g.Fanin[0]]
		case logic.Not:
			v = m.Not(vals[g.Fanin[0]])
		case logic.And, logic.Nand:
			v = One
			for _, f := range g.Fanin {
				v = m.And(v, vals[f])
			}
			if g.Type == logic.Nand {
				v = m.Not(v)
			}
		case logic.Or, logic.Nor:
			v = Zero
			for _, f := range g.Fanin {
				v = m.Or(v, vals[f])
			}
			if g.Type == logic.Nor {
				v = m.Not(v)
			}
		case logic.Xor, logic.Xnor:
			v = Zero
			for _, f := range g.Fanin {
				v = m.Xor(v, vals[f])
			}
			if g.Type == logic.Xnor {
				v = m.Not(v)
			}
		case logic.Mux:
			v = m.ITE(vals[g.Fanin[0]], vals[g.Fanin[2]], vals[g.Fanin[1]])
		default:
			return nil, fmt.Errorf("bdd: unsupported gate type %v", g.Type)
		}
		vals[gi] = v
	}
	roots := make([]Node, nw.NumOutputs())
	for i, id := range nw.Outputs {
		roots[i] = vals[id]
	}
	return roots, nil
}
