package oct

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"compact/internal/graph"
)

// decodeWeighted reads a graph of at most 10 nodes and its node weights
// from fuzz bytes: the node count, one bit per node pair for the edges,
// then one byte per node for its weight — an LP occupancy minus one, in
// [0, 1.27], half of them 0 and a few just below 0 as the LP's roundoff
// leaves them.
func decodeWeighted(t *testing.T, data []byte) (*graph.Graph, []float64) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := 1 + int(next())%10
	g := graph.New(n)
	var bits byte
	k := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if k%8 == 0 {
				bits = next()
			}
			if bits>>(k%8)&1 == 1 {
				if err := g.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
			k++
		}
	}
	w := make([]float64, n)
	for v := range w {
		switch b := next(); {
		case b == 255:
			w[v] = -1e-9
		case b >= 128:
			w[v] = 0
		default:
			w[v] = float64(b) / 100
		}
	}
	return g, w
}

// oddCycleWeights lists, by brute force, the weight (negative weights
// counting as 0) of every simple odd cycle of g, each cycle once per
// direction.
func oddCycleWeights(g *graph.Graph, w []float64) []float64 {
	var out []float64
	n := g.N()
	on := make([]bool, n)
	var path []int
	var walk func(s, v int)
	walk = func(s, v int) {
		for _, u := range g.Adj(v) {
			if u == s && len(path) >= 3 && len(path)%2 == 1 {
				sum := 0.0
				for _, x := range path {
					sum += math.Max(w[x], 0)
				}
				out = append(out, sum)
			}
			if u > s && !on[u] {
				on[u] = true
				path = append(path, u)
				walk(s, u)
				path = path[:len(path)-1]
				on[u] = false
			}
		}
	}
	for s := 0; s < n; s++ {
		on[s] = true
		path = append(path[:0], s)
		walk(s, s)
		on[s] = false
	}
	return out
}

// FuzzOddCycleSeparation checks ViolatedOddCycles against brute force on
// graphs of at most 10 nodes: every returned cycle is simple, odd, made
// of edges of g, returned once and violated; when none is returned, no
// odd cycle weighs less than 1 − MinViolation (up to summation roundoff).
func FuzzOddCycleSeparation(f *testing.F) {
	f.Add([]byte{2, 0xff, 0, 0, 0})                                        // triangle, all weights 0
	f.Add([]byte{2, 0x07, 30, 30, 30})                                     // triangle, weights 0.3
	f.Add([]byte{4, 0x91, 0x01, 25, 25, 25, 25, 25})                       // five nodes, weights 0.25
	f.Add([]byte{9, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 60, 60, 60, 0, 0}) // K10
	f.Add([]byte{6, 0x25, 0x49, 0x92, 0x24, 0, 10, 90, 255, 128, 40, 5, 70})
	f.Add([]byte{9, 0x5a, 0xa5, 0x3c, 0xc3, 0x0f, 0xf0, 50, 49, 1, 99, 0, 255, 33, 66, 12, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, w := decodeWeighted(t, data)
		cycles := ViolatedOddCycles(g, w)
		seen := make(map[string]bool)
		for _, cyc := range cycles {
			if len(cyc) < 3 || len(cyc)%2 == 0 {
				t.Fatalf("cycle %v: length %d is not odd", cyc, len(cyc))
			}
			key := slices.Clone(cyc)
			slices.Sort(key)
			if len(slices.Compact(key)) != len(cyc) {
				t.Fatalf("cycle %v repeats a node", cyc)
			}
			if k := fmt.Sprint(key); seen[k] {
				t.Fatalf("cycle %v returned twice", cyc)
			} else {
				seen[k] = true
			}
			sum := 0.0
			for i, v := range cyc {
				if !g.HasEdge(v, cyc[(i+1)%len(cyc)]) {
					t.Fatalf("cycle %v: %d-%d is not an edge", cyc, v, cyc[(i+1)%len(cyc)])
				}
				sum += math.Max(w[v], 0)
			}
			if sum >= 1-MinViolation {
				t.Fatalf("cycle %v weighs %v, not violated", cyc, sum)
			}
		}
		if len(cycles) > 0 {
			return
		}
		for _, sum := range oddCycleWeights(g, w) {
			if sum < 1-MinViolation-1e-9 {
				t.Fatalf("no cycle returned, but an odd cycle weighs %v", sum)
			}
		}
	})
}

// TestViolatedOddCyclesShortest pins the tie rule: among equally light
// odd walks the one with the fewest edges wins, so on a wheel with zero
// weights every start node yields a triangle.
func TestViolatedOddCyclesShortest(t *testing.T) {
	const rim = 7
	g := graph.New(rim + 1)
	for v := 0; v < rim; v++ {
		for _, e := range [][2]int{{v, (v + 1) % rim}, {v, rim}} {
			if err := g.AddEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycles := ViolatedOddCycles(g, make([]float64, rim+1))
	if len(cycles) < rim/2 {
		t.Fatalf("%d cycles, want one triangle per start node or two", len(cycles))
	}
	for _, cyc := range cycles {
		if len(cyc) != 3 {
			t.Errorf("cycle %v is not a triangle", cyc)
		}
	}
	// With the hub at weight 1 only the rim (7 nodes, weight 0) is violated.
	w := make([]float64, rim+1)
	w[rim] = 1
	cycles = ViolatedOddCycles(g, w)
	if len(cycles) != 1 || len(cycles[0]) != rim {
		t.Errorf("hub weight 1: got %v, want the rim alone", cycles)
	}
}
