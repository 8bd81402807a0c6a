package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// graphFromSeed deterministically builds a random graph from a seed.
func graphFromSeed(seed int64, n int, p float64) *Graph {
	rng := rand.New(rand.NewSource(seed))
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

// Property: TwoColor succeeds exactly when OddCycle finds nothing, and a
// successful coloring is proper.
func TestQuickBipartiteConsistency(t *testing.T) {
	prop := func(seed int64) bool {
		g := graphFromSeed(seed, 12, 0.2)
		color, ok := g.TwoColor()
		cyc := g.OddCycle()
		if ok != (cyc == nil) {
			return false
		}
		if ok {
			for _, e := range g.Edges() {
				if color[e[0]] == color[e[1]] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: GreedyVertexCover covers every edge and is never smaller than
// a minimum cover.
func TestQuickCoversAlwaysCover(t *testing.T) {
	prop := func(seed int64) bool {
		g := graphFromSeed(seed, 11, 0.3)
		greedy := GreedyVertexCover(g)
		return g.VerifyVertexCover(greedy) && len(greedy) >= bruteMinVC(g)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: in G □ K2, every vertex gains exactly one neighbor (its twin):
// deg_P(v) = deg_G(v) + 1, and |E(P)| = 2|E(G)| + |V(G)|.
func TestQuickCartesianK2Degrees(t *testing.T) {
	prop := func(seed int64) bool {
		g := graphFromSeed(seed, 9, 0.3)
		p := g.CartesianK2()
		if p.M() != 2*g.M()+g.N() {
			return false
		}
		for v := 0; v < g.N(); v++ {
			if p.Degree(v) != g.Degree(v)+1 || p.Degree(v+g.N()) != g.Degree(v)+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: components partition the vertex set.
func TestQuickComponentsPartition(t *testing.T) {
	prop := func(seed int64) bool {
		g := graphFromSeed(seed, 14, 0.12)
		seen := make([]bool, g.N())
		total := 0
		for _, comp := range g.Components() {
			for _, v := range comp {
				if seen[v] {
					return false
				}
				seen[v] = true
				total++
			}
		}
		return total == g.N()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
