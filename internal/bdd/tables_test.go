package bdd

import (
	"math/rand"
	"testing"

	"compact/internal/bench"
	"compact/internal/logic"
)

// TestArenaGolden pins, for every bundled circuit built in DFSOrder, the
// arena size (every node mk ever created, dead ones included) and the
// reachable node count. The arena size depends on the order in which the
// operations create nodes, so a change to the unique or computed table
// that alters the recursion shows here even when the roots stay equal.
func TestArenaGolden(t *testing.T) {
	want := map[string][2]int{
		"c432":      {5605, 459},
		"c499":      {14497, 10483},
		"c880":      {1228, 363},
		"c1355":     {14497, 10483},
		"c1908":     {2721, 1622},
		"c2670":     {5760, 1001},
		"c3540":     {861, 282},
		"c5315":     {5910, 875},
		"c7552":     {26769, 2939},
		"arbiter":   {49410, 16768},
		"cavlc":     {198, 91},
		"ctrl":      {176, 81},
		"dec":       {1006, 512},
		"i2c":       {1186, 518},
		"int2float": {1182, 242},
		"priority":  {52803, 963},
		"router":    {1495, 694},
	}
	gens := bench.All()
	if len(gens) != len(want) {
		t.Fatalf("%d bundled circuits, golden covers %d", len(gens), len(want))
	}
	for _, g := range gens {
		nw := g.Build()
		m, roots, err := BuildNetwork(nw, DFSOrder(nw), 0)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		got := [2]int{m.Size(), m.CountNodes(roots...)}
		if got != want[g.Name] {
			t.Errorf("%s: Size, CountNodes = %v, want %v", g.Name, got, want[g.Name])
		}
	}
}

// TestTablesGrow drives both tables through several doublings and checks
// that nothing stored before a doubling is lost by it.
func TestTablesGrow(t *testing.T) {
	const levels = 16
	names := make([]string, levels)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	m := New(names)
	rng := rand.New(rand.NewSource(1))
	type triple struct {
		level     uint32
		low, high Node
	}
	made := map[triple]Node{}
	pool := []Node{Zero, One}
	for level := levels - 1; level >= 0; level-- {
		var fresh []Node
		for k := 0; k < 400; k++ {
			low, high := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
			if low == high {
				continue
			}
			key := triple{uint32(level), low, high}
			n := m.mk(key.level, low, high)
			if prev, ok := made[key]; ok && prev != n {
				t.Fatalf("mk%v = %d, earlier %d", key, n, prev)
			}
			made[key] = n
			fresh = append(fresh, n)
		}
		pool = append(pool, fresh...)
	}
	if m.Size() != len(made)+2 {
		t.Fatalf("Size %d for %d distinct triples", m.Size(), len(made))
	}
	if len(m.unique.slots) < tableMinSlots<<4 {
		t.Fatalf("unique table has %d slots after %d nodes; want 4+ doublings", len(m.unique.slots), len(made))
	}
	for key, n := range made {
		if got, _ := m.unique.find(m.nodes, key.level, key.low, key.high); got != n {
			t.Errorf("find%v = %d, want %d", key, got, n)
		}
	}
	used := 0
	for _, n := range m.unique.slots {
		if n != 0 {
			used++
		}
	}
	if used != len(made) {
		t.Errorf("unique table holds %d handles, arena %d internal nodes", used, len(made))
	}

	type opKey struct {
		op      opCode
		a, b, c Node
	}
	stored := map[opKey]Node{}
	for i := 0; len(stored) < 6000; i++ {
		k := opKey{opCode(1 + rng.Intn(int(opITE))), Node(rng.Intn(500)), Node(rng.Intn(500)), Node(rng.Intn(4))}
		r := Node(rng.Uint32())
		m.computed.insert(k.op, k.a, k.b, k.c, r)
		stored[k] = r
	}
	if len(m.computed.slots) < tableMinSlots<<4 || m.computed.n != len(stored) {
		t.Fatalf("computed table: %d slots, %d entries for %d keys", len(m.computed.slots), m.computed.n, len(stored))
	}
	for k, r := range stored {
		if got, ok := m.computed.lookup(k.op, k.a, k.b, k.c); !ok || got != r {
			t.Errorf("lookup%v = %d, %v; want %d", k, got, ok, r)
		}
	}
	if _, ok := m.computed.lookup(opAnd, 1000, 1000, 0); ok {
		t.Error("lookup of a never-stored key hit")
	}
}

// FuzzBuildVsEval64 decodes a small gate network — up to 8 inputs, every
// gate type buildInto handles — and builds its shared BDD in DFSOrder or
// in declaration order. Every root must agree with the network's
// word-parallel simulation on all assignments, and the arena must stay
// canonical and ordered: no node with equal children, no two nodes with
// the same (level, low, high), and every child strictly below its parent.
func FuzzBuildVsEval64(f *testing.F) {
	f.Add([]byte{3, 0, 4, 2, 0, 1, 8, 3, 0, 1, 2, 10, 3, 1, 2, 3})
	f.Add([]byte{7, 1, 0, 0, 1, 0, 2, 1, 3, 3, 0, 1, 2, 6, 2, 4, 5, 9, 3, 0, 7, 8, 11, 3, 1, 9, 10})
	f.Add([]byte{5, 0, 5, 3, 0, 1, 2, 7, 2, 3, 4, 9, 2, 5, 6, 11, 3, 7, 0, 8})
	f.Add([]byte{0})
	// ~170 random gates over 8 inputs: an arena of 220 nodes that takes
	// the unique table through one doubling and the computed table
	// through two.
	big := make([]byte, 700)
	rand.New(rand.NewSource(3)).Read(big)
	big[0] = 15
	f.Add(big)
	f.Fuzz(func(t *testing.T, data []byte) {
		nw, dfs := decodeNetwork(data)
		order := []int(nil)
		if dfs {
			order = DFSOrder(nw)
		}
		m, roots, err := BuildNetwork(nw, order, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkArena(t, m)
		nIn := nw.NumInputs()
		level := make([]int, nIn) // input index -> manager level
		for i := range level {
			level[i] = i
		}
		if order != nil {
			for l, i := range order {
				level[i] = l
			}
		}
		words := make([]uint64, nIn)
		in := make([]bool, nIn)
		for i := range words {
			for b := 0; b < 64; b++ {
				words[i] |= uint64(b>>uint(i)&1) << uint(b)
			}
		}
		for base := 0; base < 1<<uint(nIn); base += 64 {
			for i := 6; i < nIn; i++ {
				words[i] = -uint64(base >> uint(i) & 1)
			}
			want := nw.Eval64(words)
			for b := 0; b < 64 && base+b < 1<<uint(nIn); b++ {
				for i := range in {
					in[level[i]] = words[i]>>uint(b)&1 != 0
				}
				for o, r := range roots {
					if m.Eval(r, in) != (want[o]>>uint(b)&1 != 0) {
						t.Fatalf("output %d differs from Eval64 on assignment %d", o, base+b)
					}
				}
			}
		}
	})
}

// decodeNetwork reads a network of up to 256 gates from fuzz bytes: the
// first byte gives the input count (1..8) and the order flag, then each
// gate takes a type byte, an arity byte and one fanin byte per input,
// every fanin naming an earlier gate. The last three gates (fewer in
// small networks) drive the outputs.
func decodeNetwork(data []byte) (*logic.Network, bool) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0])
		data = data[1:]
		return v
	}
	head := next()
	b := logic.NewBuilder("fuzz")
	var pool []int
	for i := 0; i < 1+head%8; i++ {
		pool = append(pool, b.Input(string(rune('a'+i))))
	}
	for g := 0; g < 256 && len(data) > 0; g++ {
		typ, arity := next()%11, 1+next()%3
		fan := make([]int, arity)
		for i := range fan {
			fan[i] = pool[next()%len(pool)]
		}
		var id int
		switch typ {
		case 0:
			id = b.Const0()
		case 1:
			id = b.Const1()
		case 2:
			id = b.Buf(fan[0])
		case 3:
			id = b.Not(fan[0])
		case 4:
			id = b.And(fan...)
		case 5:
			id = b.Or(fan...)
		case 6:
			id = b.Nand(fan...)
		case 7:
			id = b.Nor(fan...)
		case 8:
			id = b.Xor(fan...)
		case 9:
			id = b.Xnor(fan...)
		default:
			id = b.Mux(fan[0], fan[len(fan)/2], fan[len(fan)-1])
		}
		pool = append(pool, id)
	}
	for o := 0; o < 3 && o < len(pool); o++ {
		b.Output(string(rune('p'+o)), pool[len(pool)-1-o])
	}
	return b.Build(), head&8 != 0
}

// checkArena fails unless every internal node of m is reduced, unique by
// (level, low, high) and ordered above its children.
func checkArena(t *testing.T, m *Manager) {
	t.Helper()
	seen := make(map[nodeData]Node, m.Size())
	for h := Node(2); int(h) < m.Size(); h++ {
		d := m.nodes[h]
		if d.low == d.high {
			t.Fatalf("node %d has equal children %d", h, d.low)
		}
		if prev, ok := seen[d]; ok {
			t.Fatalf("nodes %d and %d share (level, low, high) = %v", prev, h, d)
		}
		seen[d] = h
		if m.Level(d.low) <= int(d.level) || m.Level(d.high) <= int(d.level) {
			t.Fatalf("node %d at level %d has a child at or above it", h, d.level)
		}
	}
}
