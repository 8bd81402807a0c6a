package bdd

import "math/bits"

// The unique and computed tables
//
// Both tables are open-addressed with linear probing over a power-of-two
// slot array, the layout of Brace, Rudell and Bryant's BDD package (DAC
// 1990). A slot is found from the top bits of a multiplicative hash of the
// key (Fibonacci hashing), and each table doubles once more than half its
// slots are full, so a miss probes at most about two and a half slots on
// average.
//
// The unique table holds node handles only: slot value 0 is empty, which
// is safe because handle 0 is the Zero terminal and is never interned, and
// a probe compares the key against the arena entry the handle names, so no
// key is stored twice. Doubling rehashes from the arena.
//
// The computed table is exact: it keeps every (op, a, b, c) → result entry
// and never evicts, so an operation repeated on the same operands never
// recurses again. The work done, and the order in which mk creates nodes,
// then depend on the operation sequence alone, never on table sizes; a
// lossy (CUDD-style) cache would save memory by redoing evicted work.

// tableMinSlots is the slot count a fresh table starts with.
const tableMinSlots = 1 << 8

// slotShift returns the right shift that maps a 64-bit hash onto a
// power-of-two table of n slots.
func slotShift(n int) uint8 { return uint8(64 - bits.TrailingZeros(uint(n))) }

// hashPair hashes two 64-bit words; the caller takes the top bits.
func hashPair(x, y uint64) uint64 {
	return x*0x9E3779B97F4A7C15 ^ y*0xC2B2AE3D27D4EB4F
}

// uniqueTable indexes the arena's internal nodes by (level, low, high).
type uniqueTable struct {
	slots []Node // 0 = empty
	shift uint8
}

func newUniqueTable(n int) uniqueTable {
	return uniqueTable{slots: make([]Node, n), shift: slotShift(n)}
}

func (t *uniqueTable) slot(level uint32, low, high Node) int {
	return int(hashPair(uint64(low)|uint64(high)<<32, uint64(level)) >> t.shift)
}

// find returns the node (level, low, high), or 0 and the empty slot where
// it belongs.
func (t *uniqueTable) find(nodes []nodeData, level uint32, low, high Node) (Node, int) {
	mask := len(t.slots) - 1
	for i := t.slot(level, low, high); ; i = (i + 1) & mask {
		n := t.slots[i]
		if n == 0 {
			return 0, i
		}
		if d := nodes[n]; d.level == level && d.low == low && d.high == high {
			return n, i
		}
	}
}

// grow doubles the table when the arena's internal nodes fill more than
// half of it, reinserting every one of them.
func (t *uniqueTable) grow(nodes []nodeData) {
	if 2*(len(nodes)-2) <= len(t.slots) {
		return
	}
	*t = newUniqueTable(2 * len(t.slots))
	mask := len(t.slots) - 1
	for h := 2; h < len(nodes); h++ {
		d := nodes[h]
		i := t.slot(d.level, d.low, d.high)
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = Node(h)
	}
}

// opEntry is one computed-table entry; op 0 marks an empty slot.
type opEntry struct {
	a, b, c, r Node
	op         opCode
}

// computedTable memoizes operation results by (op, a, b, c).
type computedTable struct {
	slots []opEntry
	n     int
	shift uint8
}

func newComputedTable(n int) computedTable {
	return computedTable{slots: make([]opEntry, n), shift: slotShift(n)}
}

func (t *computedTable) slot(op opCode, a, b, c Node) int {
	return int(hashPair(uint64(a)|uint64(b)<<32, uint64(c)|uint64(op)<<32) >> t.shift)
}

// lookup returns the stored result of (op, a, b, c), if any.
func (t *computedTable) lookup(op opCode, a, b, c Node) (Node, bool) {
	mask := len(t.slots) - 1
	for i := t.slot(op, a, b, c); ; i = (i + 1) & mask {
		e := &t.slots[i]
		if e.op == 0 {
			return 0, false
		}
		if e.op == op && e.a == a && e.b == b && e.c == c {
			return e.r, true
		}
	}
}

// insert stores r as the result of (op, a, b, c), doubling the table
// once more than half of it is full.
func (t *computedTable) insert(op opCode, a, b, c, r Node) {
	mask := len(t.slots) - 1
	i := t.slot(op, a, b, c)
	for e := &t.slots[i]; e.op != 0; e = &t.slots[i] {
		if e.op == op && e.a == a && e.b == b && e.c == c {
			e.r = r
			return
		}
		i = (i + 1) & mask
	}
	t.slots[i] = opEntry{a: a, b: b, c: c, r: r, op: op}
	t.n++
	if 2*t.n <= len(t.slots) {
		return
	}
	old := t.slots
	*t = newComputedTable(2 * len(old))
	for _, e := range old {
		if e.op != 0 {
			t.insert(e.op, e.a, e.b, e.c, e.r)
		}
	}
}
