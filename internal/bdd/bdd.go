// Package bdd implements reduced ordered binary decision diagrams (ROBDDs)
// over a shared node arena, replacing the ABC/CUDD dependency of the
// original COMPACT implementation. Multiple roots in one Manager form a
// shared BDD (SBDD); one root per Manager models the per-output ROBDD
// flow of prior work.
//
// Nodes are referenced by dense uint32 handles; handles 0 and 1 are the
// constant terminals. Internal nodes are canonical: no node has equal
// children, and no two nodes share (level, low, high), which an
// open-addressed unique table of handles enforces. Boolean operations are
// memoized in an exact open-addressed computed table (tables.go). The
// Manager is not safe for concurrent use.
package bdd

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sort"

	"compact/internal/errio"
	"compact/internal/logic"
)

// Node is a handle to a BDD node within its Manager.
type Node uint32

// Terminal node handles.
const (
	Zero Node = 0
	One  Node = 1
)

const terminalLevel = ^uint32(0)

// ErrNodeLimit is returned (wrapped) when a construction exceeds the
// Manager's configured node limit.
var ErrNodeLimit = errors.New("bdd: node limit exceeded")

// ErrVarRange reports a variable index outside the manager's declared set.
var ErrVarRange = errors.New("bdd: variable index out of range")

// BoundaryError implements the package's error-valued panic protocol.
// Resource and argument violations detected deep inside recursive BDD
// operations (ErrNodeLimit, ErrVarRange) unwind by panicking with a wrapped
// error; every exported construction boundary recovers and passes the
// recovered value here, turning protocol panics back into ordinary errors.
// Any other value is a foreign panic and is re-raised unchanged.
func BoundaryError(r any) error {
	if e, ok := r.(error); ok && (errors.Is(e, ErrNodeLimit) || errors.Is(e, ErrVarRange)) {
		return e
	}
	//lint:ignore panicfree re-raises foreign panics; protocol panics become errors above
	panic(r)
}

type nodeData struct {
	level     uint32
	low, high Node
}

// opCode names a memoized operation; 0 marks an empty computed-table slot.
type opCode uint8

const (
	opAnd opCode = iota + 1
	opOr
	opXor
	opNot
	opITE
)

// Manager owns a forest of ROBDDs over a fixed ordered variable set.
type Manager struct {
	nodes    []nodeData
	unique   uniqueTable
	computed computedTable
	varNames []string
	limit    int // 0 = unlimited
}

// New creates a Manager over the given variables; the slice order is the
// BDD variable order (index = level, lower level closer to the roots).
func New(varNames []string) *Manager {
	m := &Manager{
		nodes: []nodeData{
			{level: terminalLevel}, // Zero
			{level: terminalLevel}, // One
		},
		unique:   newUniqueTable(tableMinSlots),
		computed: newComputedTable(tableMinSlots),
		varNames: append([]string(nil), varNames...),
	}
	return m
}

// SetNodeLimit bounds the arena size; operations that would grow past the
// limit panic with a value wrapping ErrNodeLimit (recovered by Build*).
func (m *Manager) SetNodeLimit(n int) { m.limit = n }

// NumVars returns the number of declared variables.
func (m *Manager) NumVars() int { return len(m.varNames) }

// VarName returns the name of the variable at the given level.
func (m *Manager) VarName(level int) string { return m.varNames[level] }

// Size returns the total number of nodes ever created (incl. terminals).
func (m *Manager) Size() int { return len(m.nodes) }

// Level returns the variable level of n; terminals report NumVars().
func (m *Manager) Level(n Node) int {
	if m.nodes[n].level == terminalLevel {
		return len(m.varNames)
	}
	return int(m.nodes[n].level)
}

// Low returns the low (else, variable=0) child of internal node n.
func (m *Manager) Low(n Node) Node { return m.nodes[n].low }

// High returns the high (then, variable=1) child of internal node n.
func (m *Manager) High(n Node) Node { return m.nodes[n].high }

// mk returns the canonical node (level, low, high).
func (m *Manager) mk(level uint32, low, high Node) Node {
	if low == high {
		return low
	}
	n, slot := m.unique.find(m.nodes, level, low, high)
	if n != 0 {
		return n
	}
	if m.limit > 0 && len(m.nodes) >= m.limit {
		//lint:ignore panicfree error-valued panic unwinding recursive ops; recovered via BoundaryError
		panic(fmt.Errorf("%w (%d nodes)", ErrNodeLimit, m.limit))
	}
	n = Node(len(m.nodes))
	m.nodes = append(m.nodes, nodeData{level: level, low: low, high: high})
	m.unique.slots[slot] = n
	m.unique.grow(m.nodes)
	return n
}

// Var returns the BDD for the positive literal of variable level v.
func (m *Manager) Var(v int) Node {
	m.checkVar(v)
	return m.mk(uint32(v), Zero, One)
}

// NVar returns the BDD for the negative literal of variable level v.
func (m *Manager) NVar(v int) Node {
	m.checkVar(v)
	return m.mk(uint32(v), One, Zero)
}

func (m *Manager) checkVar(v int) {
	if v < 0 || v >= len(m.varNames) {
		//lint:ignore panicfree error-valued panic unwinding recursive ops; recovered via BoundaryError
		panic(fmt.Errorf("%w: %d not in [0,%d)", ErrVarRange, v, len(m.varNames)))
	}
}

// Not returns the complement of f.
func (m *Manager) Not(f Node) Node {
	switch f {
	case Zero:
		return One
	case One:
		return Zero
	}
	if r, ok := m.computed.lookup(opNot, f, 0, 0); ok {
		return r
	}
	d := m.nodes[f]
	r := m.mk(d.level, m.Not(d.low), m.Not(d.high))
	m.computed.insert(opNot, f, 0, 0, r)
	return r
}

// And returns f AND g.
func (m *Manager) And(f, g Node) Node { return m.apply(opAnd, f, g) }

// Or returns f OR g.
func (m *Manager) Or(f, g Node) Node { return m.apply(opOr, f, g) }

// Xor returns f XOR g.
func (m *Manager) Xor(f, g Node) Node { return m.apply(opXor, f, g) }

// Xnor returns NOT(f XOR g).
func (m *Manager) Xnor(f, g Node) Node { return m.Not(m.Xor(f, g)) }

// Nand returns NOT(f AND g).
func (m *Manager) Nand(f, g Node) Node { return m.Not(m.And(f, g)) }

// Nor returns NOT(f OR g).
func (m *Manager) Nor(f, g Node) Node { return m.Not(m.Or(f, g)) }

// Implies returns NOT f OR g.
func (m *Manager) Implies(f, g Node) Node { return m.Or(m.Not(f), g) }

func (m *Manager) apply(op opCode, f, g Node) Node {
	// Terminal rules.
	switch op {
	case opAnd:
		if f == Zero || g == Zero {
			return Zero
		}
		if f == One {
			return g
		}
		if g == One {
			return f
		}
		if f == g {
			return f
		}
	case opOr:
		if f == One || g == One {
			return One
		}
		if f == Zero {
			return g
		}
		if g == Zero {
			return f
		}
		if f == g {
			return f
		}
	case opXor:
		if f == Zero {
			return g
		}
		if g == Zero {
			return f
		}
		if f == One {
			return m.Not(g)
		}
		if g == One {
			return m.Not(f)
		}
		if f == g {
			return Zero
		}
	}
	// Commutative: canonicalize operand order for cache hits.
	a, b := f, g
	if a > b {
		a, b = b, a
	}
	if r, ok := m.computed.lookup(op, a, b, 0); ok {
		return r
	}
	df, dg := m.nodes[f], m.nodes[g]
	var level uint32
	fl, fh, gl, gh := f, f, g, g
	switch {
	case df.level == dg.level:
		level = df.level
		fl, fh, gl, gh = df.low, df.high, dg.low, dg.high
	case df.level < dg.level:
		level = df.level
		fl, fh = df.low, df.high
	default:
		level = dg.level
		gl, gh = dg.low, dg.high
	}
	r := m.mk(level, m.apply(op, fl, gl), m.apply(op, fh, gh))
	m.computed.insert(op, a, b, 0, r)
	return r
}

// ITE returns if-then-else(f, g, h) = (f AND g) OR (NOT f AND h).
func (m *Manager) ITE(f, g, h Node) Node {
	switch {
	case f == One:
		return g
	case f == Zero:
		return h
	case g == h:
		return g
	case g == One && h == Zero:
		return f
	case g == Zero && h == One:
		return m.Not(f)
	}
	if r, ok := m.computed.lookup(opITE, f, g, h); ok {
		return r
	}
	level := m.nodes[f].level
	if l := m.nodes[g].level; l < level {
		level = l
	}
	if l := m.nodes[h].level; l < level {
		level = l
	}
	cof := func(n Node) (Node, Node) {
		d := m.nodes[n]
		if d.level == level {
			return d.low, d.high
		}
		return n, n
	}
	fl, fh := cof(f)
	gl, gh := cof(g)
	hl, hh := cof(h)
	r := m.mk(level, m.ITE(fl, gl, hl), m.ITE(fh, gh, hh))
	m.computed.insert(opITE, f, g, h, r)
	return r
}

// Restrict returns f with variable v fixed to val.
func (m *Manager) Restrict(f Node, v int, val bool) Node {
	m.checkVar(v)
	memo := make(map[Node]Node)
	var rec func(n Node) Node
	rec = func(n Node) Node {
		d := m.nodes[n]
		if d.level == terminalLevel || d.level > uint32(v) {
			return n
		}
		if r, ok := memo[n]; ok {
			return r
		}
		var r Node
		if d.level == uint32(v) {
			if val {
				r = d.high
			} else {
				r = d.low
			}
		} else {
			r = m.mk(d.level, rec(d.low), rec(d.high))
		}
		memo[n] = r
		return r
	}
	return rec(f)
}

// Eval evaluates f under a full assignment (one bool per variable level).
func (m *Manager) Eval(f Node, assignment []bool) bool {
	if len(assignment) != len(m.varNames) {
		panic(fmt.Sprintf("bdd: Eval got %d values, want %d", len(assignment), len(m.varNames)))
	}
	for f > One {
		d := m.nodes[f]
		if assignment[d.level] {
			f = d.high
		} else {
			f = d.low
		}
	}
	return f == One
}

// SatCount returns the number of satisfying assignments of f over all
// declared variables, as a float64 (exact while the count is < 2^53). It
// uses the uniform-probability formulation p(n) = (p(low)+p(high))/2, which
// handles skipped levels without explicit correction factors.
func (m *Manager) SatCount(f Node) float64 {
	memo := make(map[Node]float64)
	var prob func(n Node) float64
	prob = func(n Node) float64 {
		switch n {
		case Zero:
			return 0
		case One:
			return 1
		}
		if p, ok := memo[n]; ok {
			return p
		}
		d := m.nodes[n]
		p := 0.5 * (prob(d.low) + prob(d.high))
		memo[n] = p
		return p
	}
	return prob(f) * pow2(len(m.varNames))
}

func pow2(n int) float64 {
	r := 1.0
	for i := 0; i < n; i++ {
		r *= 2
	}
	return r
}

// Support returns the sorted levels of variables f depends on.
func (m *Manager) Support(f Node) []int {
	seen := make(map[Node]bool)
	vars := make(map[int]bool)
	var rec func(n Node)
	rec = func(n Node) {
		if n <= One || seen[n] {
			return
		}
		seen[n] = true
		d := m.nodes[n]
		vars[int(d.level)] = true
		rec(d.low)
		rec(d.high)
	}
	rec(f)
	out := make([]int, 0, len(vars))
	for v := range vars {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Reachable returns all node handles reachable from the given roots,
// terminals included, in deterministic (ascending handle) order.
func (m *Manager) Reachable(roots ...Node) []Node {
	mark, n := m.mark(roots)
	out := make([]Node, 0, n)
	for w, word := range mark {
		for ; word != 0; word &= word - 1 {
			out = append(out, Node(w*64+bits.TrailingZeros64(word)))
		}
	}
	return out
}

// mark walks the nodes reachable from roots once, setting one bit per
// node handle, and returns the bitset and the node count.
func (m *Manager) mark(roots []Node) ([]uint64, int) {
	mark := make([]uint64, (len(m.nodes)+63)/64)
	n := 0
	stack := append([]Node(nil), roots...)
	for len(stack) > 0 {
		h := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		w, bit := h/64, uint64(1)<<(h%64)
		if mark[w]&bit != 0 {
			continue
		}
		mark[w] |= bit
		n++
		if h > One {
			d := m.nodes[h]
			stack = append(stack, d.low, d.high)
		}
	}
	return mark, n
}

// Count returns CountNodes and CountEdges from one walk of the nodes
// reachable from roots.
func (m *Manager) Count(roots ...Node) (nodes, edges int) {
	mark, n := m.mark(roots)
	terminals := 0
	if len(mark) > 0 {
		terminals = bits.OnesCount64(mark[0] & (1<<Zero | 1<<One))
	}
	return n, 2 * (n - terminals)
}

// CountNodes returns the number of reachable nodes including terminals
// (the paper's Table I "Nodes" convention).
func (m *Manager) CountNodes(roots ...Node) int {
	nodes, _ := m.Count(roots...)
	return nodes
}

// CountEdges returns the number of BDD edges reachable from roots: two per
// reachable internal node (the paper's "Edges" convention).
func (m *Manager) CountEdges(roots ...Node) int {
	_, edges := m.Count(roots...)
	return edges
}

// WriteDOT emits a Graphviz rendering of the BDDs rooted at roots. Solid
// edges are high (then) edges, dashed are low (else) edges.
func (m *Manager) WriteDOT(w io.Writer, roots ...Node) error {
	ew := errio.NewWriter(w)
	ew.Println("digraph bdd {")
	ew.Println(`  node [shape=circle];`)
	ew.Println(`  n0 [shape=box,label="0"]; n1 [shape=box,label="1"];`)
	for _, n := range m.Reachable(roots...) {
		if n <= One {
			continue
		}
		d := m.nodes[n]
		ew.Printf("  n%d [label=%q];\n", n, m.varNames[d.level])
		ew.Printf("  n%d -> n%d [style=dashed];\n", n, d.low)
		ew.Printf("  n%d -> n%d;\n", n, d.high)
	}
	for i, r := range roots {
		ew.Printf("  r%d [shape=plaintext,label=\"out%d\"]; r%d -> n%d;\n", i, i, i, r)
	}
	ew.Println("}")
	return ew.Err()
}

// BuildNetwork constructs a shared BDD (one Manager, one root per primary
// output) for the network, using the given variable order (a permutation of
// input indices; nil means natural declaration order). limit > 0 bounds the
// node count.
func BuildNetwork(nw *logic.Network, order []int, limit int) (*Manager, []Node, error) {
	if order == nil {
		order = make([]int, nw.NumInputs())
		for i := range order {
			order[i] = i
		}
	}
	if len(order) != nw.NumInputs() {
		return nil, nil, fmt.Errorf("bdd: order has %d entries, want %d", len(order), nw.NumInputs())
	}
	names := make([]string, len(order))
	inNames := nw.InputNames()
	for level, inIdx := range order {
		if inIdx < 0 || inIdx >= nw.NumInputs() {
			return nil, nil, fmt.Errorf("bdd: order entry %d out of range", inIdx)
		}
		names[level] = inNames[inIdx]
	}
	m := New(names)
	m.SetNodeLimit(limit)
	roots, err := m.BuildRoots(nw, order)
	if err != nil {
		return nil, nil, err
	}
	return m, roots, nil
}

// Single is one output's ROBDD in its own Manager, used to model the
// per-output flow of prior work ([16]) before merging by the 1-terminal.
type Single struct {
	Name    string
	Manager *Manager
	Root    Node
}

// BuildSeparate constructs one independent ROBDD per primary output.
func BuildSeparate(nw *logic.Network, order []int, limit int) ([]Single, error) {
	singles := make([]Single, 0, nw.NumOutputs())
	for i := range nw.Outputs {
		sub, err := extractCone(nw, i)
		if err != nil {
			return nil, err
		}
		// Same global order restricted to the cone's inputs.
		var subOrder []int
		if order != nil {
			pos := make(map[int]int)
			for p, v := range order {
				pos[v] = p
			}
			type iv struct{ idx, pos int }
			var ivs []iv
			for subIdx, name := range sub.InputNames() {
				gi := nw.InputIndex(name)
				ivs = append(ivs, iv{subIdx, pos[gi]})
			}
			sort.Slice(ivs, func(a, b int) bool { return ivs[a].pos < ivs[b].pos })
			subOrder = make([]int, len(ivs))
			for p, e := range ivs {
				subOrder[p] = e.idx
			}
		}
		m, roots, err := BuildNetwork(sub, subOrder, limit)
		if err != nil {
			return nil, fmt.Errorf("output %s: %w", nw.OutputNames[i], err)
		}
		singles = append(singles, Single{Name: nw.OutputNames[i], Manager: m, Root: roots[0]})
	}
	return singles, nil
}

// extractCone builds a single-output network containing only the fanin cone
// of output o.
func extractCone(nw *logic.Network, o int) (*logic.Network, error) {
	root := nw.Outputs[o]
	cone := nw.Cone(root)
	b := logic.NewBuilder(nw.Name + "." + nw.OutputNames[o])
	remap := make(map[int]int, len(cone))
	for _, id := range cone {
		g := nw.Gates[id]
		if g.Type == logic.Input {
			remap[id] = b.Input(g.Name)
			continue
		}
		fan := make([]int, len(g.Fanin))
		for i, f := range g.Fanin {
			fan[i] = remap[f]
		}
		switch g.Type {
		case logic.Const0:
			remap[id] = b.Const0()
		case logic.Const1:
			remap[id] = b.Const1()
		case logic.Buf:
			remap[id] = b.Buf(fan[0])
		case logic.Not:
			remap[id] = b.Not(fan[0])
		case logic.And:
			remap[id] = b.And(fan...)
		case logic.Or:
			remap[id] = b.Or(fan...)
		case logic.Nand:
			remap[id] = b.Nand(fan...)
		case logic.Nor:
			remap[id] = b.Nor(fan...)
		case logic.Xor:
			remap[id] = b.Xor(fan...)
		case logic.Xnor:
			remap[id] = b.Xnor(fan...)
		case logic.Mux:
			remap[id] = b.Mux(fan[0], fan[1], fan[2])
		default:
			return nil, fmt.Errorf("bdd: unsupported gate type %v", g.Type)
		}
	}
	b.Output(nw.OutputNames[o], remap[root])
	return b.Build(), nil
}
