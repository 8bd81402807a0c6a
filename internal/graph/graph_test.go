package graph

import (
	"math/rand"
	"slices"
	"testing"
)

func cycle(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

func complete(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

func randomGraph(rng *rand.Rand, n int, p float64) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

func TestBasics(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 1) // duplicate ignored
	if g.M() != 2 {
		t.Errorf("M = %d, want 2", g.M())
	}
	if !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Errorf("HasEdge wrong")
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Errorf("degrees wrong")
	}
	edges := g.Edges()
	if len(edges) != 2 || edges[0] != [2]int{0, 1} || edges[1] != [2]int{1, 2} {
		t.Errorf("Edges = %v", edges)
	}
	if err := g.AddEdge(2, 2); err == nil {
		t.Errorf("self-loop edge did not error")
	}
	if err := g.AddEdge(1, 9); err == nil {
		t.Errorf("out-of-range edge did not error")
	}
	if g.M() != 2 {
		t.Errorf("rejected edges mutated the graph: M = %d, want 2", g.M())
	}
}

// TestEdgesCached checks that Edges builds its list once and that an
// inserted edge drops the cached list.
func TestEdgesCached(t *testing.T) {
	g := cycle(4)
	first := g.Edges()
	if again := g.Edges(); &again[0] != &first[0] {
		t.Error("second Edges call rebuilt the list")
	}
	if allocs := testing.AllocsPerRun(10, func() { g.Edges() }); allocs != 0 {
		t.Errorf("cached Edges allocates %.0f times", allocs)
	}
	g.AddEdge(0, 2)
	want := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {2, 3}}
	if got := g.Edges(); !slices.Equal(got, want) {
		t.Errorf("after AddEdge, Edges = %v, want %v", got, want)
	}
	g.AddEdge(0, 2) // duplicate: the cache stays
	if got := g.Edges(); !slices.Equal(got, want) {
		t.Errorf("after a duplicate AddEdge, Edges = %v, want %v", got, want)
	}
}

func TestTwoColor(t *testing.T) {
	if _, ok := cycle(6).TwoColor(); !ok {
		t.Errorf("even cycle should be bipartite")
	}
	if _, ok := cycle(5).TwoColor(); ok {
		t.Errorf("odd cycle should not be bipartite")
	}
	color, ok := cycle(8).TwoColor()
	if !ok {
		t.Fatal("C8 not bipartite?")
	}
	for i := 0; i < 8; i++ {
		if color[i] == color[(i+1)%8] {
			t.Errorf("adjacent same color at %d", i)
		}
	}
	// Disconnected graph with one odd component.
	g := New(8)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 2)
	if g.IsBipartite() {
		t.Errorf("triangle component not detected")
	}
}

func TestComponents(t *testing.T) {
	g := New(7)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(4, 5)
	comps := g.Components()
	if len(comps) != 4 { // {0,1,2}, {3}, {4,5}, {6}
		t.Fatalf("components = %v", comps)
	}
	if len(comps[0]) != 3 || len(comps[2]) != 2 {
		t.Errorf("components = %v", comps)
	}
}

func TestOddCycle(t *testing.T) {
	if c := cycle(6).OddCycle(); c != nil {
		t.Errorf("even cycle returned odd cycle %v", c)
	}
	for _, n := range []int{3, 5, 7, 9} {
		c := cycle(n).OddCycle()
		if c == nil {
			t.Fatalf("C%d: no odd cycle found", n)
		}
		if len(c)%2 == 0 {
			t.Errorf("C%d: returned cycle of even length %d: %v", n, len(c), c)
		}
		g := cycle(n)
		for i := range c {
			if !g.HasEdge(c[i], c[(i+1)%len(c)]) {
				t.Errorf("C%d: %v not a cycle (missing edge %d-%d)", n, c, c[i], c[(i+1)%len(c)])
			}
		}
	}
	// Random non-bipartite graphs: returned cycle must be a genuine odd cycle.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		g := randomGraph(rng, 12, 0.25)
		c := g.OddCycle()
		if c == nil {
			if !g.IsBipartite() {
				t.Fatalf("trial %d: bipartite disagreement", trial)
			}
			continue
		}
		if len(c)%2 == 0 {
			t.Fatalf("trial %d: even cycle %v", trial, c)
		}
		for i := range c {
			if !g.HasEdge(c[i], c[(i+1)%len(c)]) {
				t.Fatalf("trial %d: not a cycle: %v", trial, c)
			}
		}
	}
}

func TestCartesianK2(t *testing.T) {
	g := cycle(3)
	p := g.CartesianK2()
	if p.N() != 6 {
		t.Fatalf("N = %d", p.N())
	}
	// Edges: 3 in each copy + 3 rungs = 9.
	if p.M() != 9 {
		t.Errorf("M = %d, want 9", p.M())
	}
	for v := 0; v < 3; v++ {
		if !p.HasEdge(v, v+3) {
			t.Errorf("missing rung %d-%d", v, v+3)
		}
	}
	// G □ K2 of any graph is... C3 □ K2 is the 3-prism, not bipartite.
	if p.IsBipartite() {
		t.Errorf("3-prism should not be bipartite")
	}
	// Product of bipartite graph stays bipartite.
	if !cycle(4).CartesianK2().IsBipartite() {
		t.Errorf("C4 □ K2 should be bipartite")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := complete(5)
	sub, orig := g.InducedSubgraph([]int{1, 3, 4})
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("induced K3: N=%d M=%d", sub.N(), sub.M())
	}
	if orig[0] != 1 || orig[2] != 4 {
		t.Errorf("orig = %v", orig)
	}
	sub2, _ := g.RemoveVertices(map[int]bool{0: true, 2: true})
	if sub2.N() != 3 || sub2.M() != 3 {
		t.Errorf("RemoveVertices: N=%d M=%d", sub2.N(), sub2.M())
	}
}

// bruteMinVC computes the true minimum vertex cover size by enumeration.
func bruteMinVC(g *Graph) int {
	n := g.N()
	edges := g.Edges()
	best := n
	for mask := 0; mask < 1<<n; mask++ {
		size := 0
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				size++
			}
		}
		if size >= best {
			continue
		}
		ok := true
		for _, e := range edges {
			if mask&(1<<e[0]) == 0 && mask&(1<<e[1]) == 0 {
				ok = false
				break
			}
		}
		if ok {
			best = size
		}
	}
	return best
}

// TestGreedyVertexCoverKnownGraphs pins the greedy cover on graphs where
// max-degree picks plus pruning reach the minimum.
func TestGreedyVertexCoverKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"K5", complete(5), 4},
		{"C5", cycle(5), 3},
		{"C6", cycle(6), 3},
		{"empty", New(6), 0},
		{"K1", New(1), 0},
	}
	for _, c := range cases {
		cover := GreedyVertexCover(c.g)
		if len(cover) != c.want || !c.g.VerifyVertexCover(cover) {
			t.Errorf("%s: got %v, want a cover of size %d", c.name, cover, c.want)
		}
		if brute := bruteMinVC(c.g); brute != c.want {
			t.Errorf("%s: brute force says %d, want %d", c.name, brute, c.want)
		}
	}
}

func TestGreedyVertexCover(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, 14, 0.3)
		cover := GreedyVertexCover(g)
		if !g.VerifyVertexCover(cover) {
			t.Fatalf("trial %d: greedy cover invalid", trial)
		}
		// No redundant vertices after pruning.
		for v := range cover {
			allCovered := true
			for _, w := range g.Adj(v) {
				if !cover[w] {
					allCovered = false
					break
				}
			}
			if allCovered && g.Degree(v) > 0 {
				t.Errorf("trial %d: redundant cover vertex %d", trial, v)
			}
		}
	}
}

func TestClone(t *testing.T) {
	g := cycle(5)
	c := g.Clone()
	c.AddEdge(0, 2)
	if g.M() != 5 || c.M() != 6 {
		t.Errorf("clone not independent: %d %d", g.M(), c.M())
	}
}
