package graph

import (
	"context"
	"math/rand"
	"testing"
	"time"
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

func TestMaxMatchingKonig(t *testing.T) {
	// Bipartite random graphs: |max matching| == |min VC| (König).
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		nl, nr := 2+rng.Intn(5), 2+rng.Intn(5)
		g := New(nl + nr)
		for u := 0; u < nl; u++ {
			for v := 0; v < nr; v++ {
				if rng.Float64() < 0.4 {
					g.AddEdge(u, nl+v)
				}
			}
		}
		color, ok := g.TwoColor()
		if !ok {
			t.Fatal("bipartite construction not bipartite")
		}
		mate := MaxMatching(g, color)
		ms := MatchingSize(mate)
		cover := KonigCover(g, color, mate)
		if !g.VerifyVertexCover(cover) {
			t.Fatalf("trial %d: König cover invalid", trial)
		}
		if len(cover) != ms {
			t.Fatalf("trial %d: |cover|=%d != |matching|=%d", trial, len(cover), ms)
		}
		if want := bruteMinVC(g); len(cover) != want {
			t.Fatalf("trial %d: cover %d, brute %d", trial, len(cover), want)
		}
		// Matching must be consistent.
		for v, m := range mate {
			if m >= 0 && mate[m] != v {
				t.Fatalf("trial %d: inconsistent mate array", trial)
			}
		}
	}
}

func TestMinVertexCoverBipartiteHelper(t *testing.T) {
	g := cycle(8)
	cover := MinVertexCoverBipartite(g)
	if len(cover) != 4 || !g.VerifyVertexCover(cover) {
		t.Errorf("C8 cover = %v", cover)
	}
}

func TestLPRelaxVC(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(rng, 10, 0.3)
		x := LPRelaxVC(g)
		// Feasibility: every edge has x_u + x_v >= 2 (doubled units).
		for _, e := range g.Edges() {
			if x[e[0]]+x[e[1]] < 2 {
				t.Fatalf("trial %d: LP infeasible on edge %v: %d+%d", trial, e, x[e[0]], x[e[1]])
			}
		}
		// LP bound: sum(x)/2 <= min VC.
		sum := 0
		for _, v := range x {
			sum += v
		}
		if opt := bruteMinVC(g); sum > 2*opt {
			t.Fatalf("trial %d: LP value %v exceeds 2*opt %d", trial, sum, 2*opt)
		}
	}
	// On an odd cycle the LP is all-halves.
	x := LPRelaxVC(cycle(5))
	for v, xi := range x {
		if xi != 1 {
			t.Errorf("C5 LP x[%d] = %d/2, want 1/2", v, xi)
		}
	}
	// On a star the center is 1, leaves 0.
	star := New(5)
	for i := 1; i < 5; i++ {
		star.AddEdge(0, i)
	}
	xs := LPRelaxVC(star)
	if xs[0] != 2 {
		t.Errorf("star center x = %d/2, want 1", xs[0])
	}
	for i := 1; i < 5; i++ {
		if xs[i] != 0 {
			t.Errorf("star leaf %d x = %d/2, want 0", i, xs[i])
		}
	}
}

func TestMinVertexCoverExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(10)
		g := randomGraph(rng, n, 0.25+0.3*rng.Float64())
		res := MinVertexCoverContext(context.Background(), g, VCOptions{})
		if !res.Optimal {
			t.Fatalf("trial %d: not optimal without time limit", trial)
		}
		if !g.VerifyVertexCover(res.Cover) {
			t.Fatalf("trial %d: invalid cover", trial)
		}
		if want := bruteMinVC(g); len(res.Cover) != want {
			t.Fatalf("trial %d: got %d, want %d", trial, len(res.Cover), want)
		}
		// Kernel-disabled variant must agree.
		res2 := MinVertexCoverContext(context.Background(), g, VCOptions{DisableKernel: true})
		if len(res2.Cover) != len(res.Cover) {
			t.Fatalf("trial %d: kernel on/off disagree: %d vs %d", trial, len(res.Cover), len(res2.Cover))
		}
	}
}

func TestMinVertexCoverKnownGraphs(t *testing.T) {
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
		res := MinVertexCoverContext(context.Background(), c.g, VCOptions{})
		if len(res.Cover) != c.want || !res.Optimal {
			t.Errorf("%s: got %d (optimal=%v), want %d", c.name, len(res.Cover), res.Optimal, c.want)
		}
	}
}

func TestMinVertexCoverTimeLimit(t *testing.T) {
	// A big random graph with a 1ns budget must still return a valid cover.
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 120, 0.2)
	res := MinVertexCoverContext(context.Background(), g, VCOptions{TimeLimit: time.Nanosecond})
	if !g.VerifyVertexCover(res.Cover) {
		t.Fatal("timeout cover invalid")
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
