package logic

import (
	"encoding/binary"
	"fmt"
)

// Builder incrementally constructs a Network. Gates are structurally hashed:
// requesting the same gate (type + fanins) twice returns the same id, so
// generators can be written naively without blowing up the gate count.
// Builder methods panic on misuse (unknown ids); generator code is expected
// to be correct by construction, and a panic during construction is a bug.
type Builder struct {
	name    string
	gates   []Gate
	inputs  []int
	outputs []int
	onames  []string
	hash    map[string]int
	key     []byte // hashKey's reused buffer
	inNames map[string]int
	const0  int // lazily created; -1 until then
	const1  int
}

// NewBuilder returns an empty Builder for a network with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:    name,
		hash:    make(map[string]int),
		inNames: make(map[string]int),
		const0:  -1,
		const1:  -1,
	}
}

func (b *Builder) check(ids ...int) {
	for _, id := range ids {
		if id < 0 || id >= len(b.gates) {
			//lint:ignore panicfree documented Builder contract: misuse of the fluent API is a generator bug
			panic(fmt.Sprintf("logic: invalid gate id %d", id))
		}
	}
}

func (b *Builder) add(t GateType, fanin ...int) int {
	b.check(fanin...)
	b.key = hashKey(b.key[:0], t, fanin)
	if id, ok := b.hash[string(b.key)]; ok {
		return id
	}
	id := len(b.gates)
	fcopy := append([]int(nil), fanin...)
	b.gates = append(b.gates, Gate{Type: t, Fanin: fcopy})
	b.hash[string(b.key)] = id
	return id
}

// hashKey appends the structural-hash key of a gate to buf: its type and
// fanins as unsigned varints. Varints are prefix-free, so distinct (type,
// fanin list) pairs never share a key. A lookup through string(key) does
// not allocate; only an insert copies the key into a string.
func hashKey(buf []byte, t GateType, fanin []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(t))
	for _, f := range fanin {
		buf = binary.AppendUvarint(buf, uint64(f))
	}
	return buf
}

// Input declares (or returns the existing) primary input with this name.
func (b *Builder) Input(name string) int {
	if name == "" {
		//lint:ignore panicfree documented Builder contract: misuse of the fluent API is a generator bug
		panic("logic: empty input name")
	}
	if id, ok := b.inNames[name]; ok {
		return id
	}
	id := len(b.gates)
	b.gates = append(b.gates, Gate{Type: Input, Name: name})
	b.inputs = append(b.inputs, id)
	b.inNames[name] = id
	return id
}

// Inputs declares n primary inputs named prefix0..prefix{n-1} and returns
// their ids in order.
func (b *Builder) Inputs(prefix string, n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = b.Input(fmt.Sprintf("%s%d", prefix, i))
	}
	return ids
}

// Const0 returns the constant-false gate (created on first use).
func (b *Builder) Const0() int {
	if b.const0 < 0 {
		b.const0 = b.add(Const0)
	}
	return b.const0
}

// Const1 returns the constant-true gate (created on first use).
func (b *Builder) Const1() int {
	if b.const1 < 0 {
		b.const1 = b.add(Const1)
	}
	return b.const1
}

// Buf returns a buffer of x (hashed, so it is effectively an alias).
func (b *Builder) Buf(x int) int { return b.add(Buf, x) }

// Not returns the negation of x. Double negation is collapsed.
func (b *Builder) Not(x int) int {
	b.check(x)
	g := b.gates[x]
	switch g.Type {
	case Not:
		return g.Fanin[0]
	case Const0:
		return b.Const1()
	case Const1:
		return b.Const0()
	}
	return b.add(Not, x)
}

// nary builds an n-ary gate, flattening trivial cases.
func (b *Builder) nary(t GateType, xs []int) int {
	if len(xs) == 0 {
		// Empty AND is true, empty OR/XOR is false.
		switch t {
		case And:
			return b.Const1()
		case Or, Xor:
			return b.Const0()
		case Nand:
			return b.Const0()
		case Nor, Xnor:
			return b.Const1()
		}
	}
	if len(xs) == 1 {
		switch t {
		case And, Or, Xor:
			return b.Buf(xs[0])
		case Nand, Nor, Xnor:
			return b.Not(xs[0])
		}
	}
	return b.add(t, xs...)
}

// And returns the conjunction of the given gates.
func (b *Builder) And(xs ...int) int { return b.nary(And, xs) }

// Or returns the disjunction of the given gates.
func (b *Builder) Or(xs ...int) int { return b.nary(Or, xs) }

// Nand returns the negated conjunction of the given gates.
func (b *Builder) Nand(xs ...int) int { return b.nary(Nand, xs) }

// Nor returns the negated disjunction of the given gates.
func (b *Builder) Nor(xs ...int) int { return b.nary(Nor, xs) }

// Xor returns the exclusive-or of the given gates.
func (b *Builder) Xor(xs ...int) int { return b.nary(Xor, xs) }

// Xnor returns the negated exclusive-or of the given gates.
func (b *Builder) Xnor(xs ...int) int { return b.nary(Xnor, xs) }

// Mux returns sel ? d1 : d0.
func (b *Builder) Mux(sel, d0, d1 int) int { return b.add(Mux, sel, d0, d1) }

// Implies returns !x | y.
func (b *Builder) Implies(x, y int) int { return b.Or(b.Not(x), y) }

// Output declares a primary output with the given name driven by gate id.
// Declaring the same name twice panics.
func (b *Builder) Output(name string, id int) {
	b.check(id)
	for _, nm := range b.onames {
		if nm == name {
			//lint:ignore panicfree documented Builder contract: misuse of the fluent API is a generator bug
			panic(fmt.Sprintf("logic: duplicate output %q", name))
		}
	}
	b.outputs = append(b.outputs, id)
	b.onames = append(b.onames, name)
}

// NumGates reports the number of gates added so far.
func (b *Builder) NumGates() int { return len(b.gates) }

// Build finalizes and returns the Network. The builder remains usable but
// further modifications do not affect the returned network's slices beyond
// shared backing arrays; callers should Build once.
func (b *Builder) Build() *Network {
	n := &Network{
		Name:        b.name,
		Gates:       append([]Gate(nil), b.gates...),
		Inputs:      append([]int(nil), b.inputs...),
		Outputs:     append([]int(nil), b.outputs...),
		OutputNames: append([]string(nil), b.onames...),
	}
	if err := n.Validate(); err != nil {
		//lint:ignore panicfree unreachable unless the Builder itself is buggy: every id was checked on entry
		panic(fmt.Sprintf("logic: builder produced invalid network: %v", err))
	}
	return n
}

// AddFullAdder builds a 1-bit full adder and returns (sum, carry).
func (b *Builder) AddFullAdder(x, y, cin int) (sum, cout int) {
	sum = b.Xor(x, y, cin)
	cout = b.Or(b.And(x, y), b.And(x, cin), b.And(y, cin))
	return sum, cout
}

// AddRippleAdder builds an n-bit ripple-carry adder over equal-length
// operand slices (LSB first) and returns the sum bits and the carry out.
func (b *Builder) AddRippleAdder(xs, ys []int, cin int) (sums []int, cout int) {
	if len(xs) != len(ys) {
		//lint:ignore panicfree documented Builder contract: misuse of the fluent API is a generator bug
		panic("logic: AddRippleAdder operand width mismatch")
	}
	c := cin
	sums = make([]int, len(xs))
	for i := range xs {
		sums[i], c = b.AddFullAdder(xs[i], ys[i], c)
	}
	return sums, c
}
