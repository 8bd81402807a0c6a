// Package graph provides the undirected-graph machinery behind COMPACT's
// VH-labeling: bipartiteness testing and 2-coloring, connected components,
// the Cartesian product with K2 used by the odd-cycle-transversal reduction
// (Lemma 1 of the paper), odd-cycle detection, and the greedy vertex cover
// that package oct uses as an incumbent for its exact OCT engines.
package graph

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Graph is a simple undirected graph over vertices 0..N-1 with adjacency
// lists. Self-loops and parallel edges are rejected by AddEdge.
type Graph struct {
	adj  [][]int
	m    int
	seen map[[2]int]bool
	// edges caches the sorted list Edges returns; addEdge drops it. It is
	// atomic because concurrent readers (the labeling portfolio's engines
	// share one graph) may each build and publish it.
	edges atomic.Pointer[[][2]int]
}

// New creates an empty graph with n vertices.
func New(n int) *Graph {
	return &Graph{adj: make([][]int, n), seen: make(map[[2]int]bool)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Adj returns the adjacency list of v (not to be mutated).
func (g *Graph) Adj(v int) []int { return g.adj[v] }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

func edgeKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// HasEdge reports whether edge {u,v} is present.
func (g *Graph) HasEdge(u, v int) bool { return g.seen[edgeKey(u, v)] }

// AddEdge inserts the undirected edge {u,v}. Duplicate edges are ignored;
// self-loops and out-of-range endpoints are rejected with an error (a
// self-loop has no valid VH-labeling and indicates a caller bug).
func (g *Graph) AddEdge(u, v int) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if u < 0 || v < 0 || u >= len(g.adj) || v >= len(g.adj) {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, len(g.adj))
	}
	g.addEdge(u, v)
	return nil
}

// addEdge inserts an already-validated edge. Internal transforms (Clone,
// InducedSubgraph, CartesianK2) derive their edges from a graph that
// passed AddEdge validation, and Random generates only in-range pairs
// u < v, so they skip it.
func (g *Graph) addEdge(u, v int) {
	k := edgeKey(u, v)
	if g.seen[k] {
		return
	}
	g.seen[k] = true
	g.edges.Store(nil)
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.m++
}

// Edges returns all edges as (u,v) pairs with u < v, sorted. The list is
// built on the first call after the last edge insertion and shared by
// later calls (not to be mutated).
func (g *Graph) Edges() [][2]int {
	if p := g.edges.Load(); p != nil {
		return *p
	}
	out := make([][2]int, 0, g.m)
	for u, ns := range g.adj {
		for _, v := range ns {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	g.edges.Store(&out)
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(len(g.adj))
	for u, ns := range g.adj {
		for _, v := range ns {
			if u < v {
				c.addEdge(u, v)
			}
		}
	}
	return c
}

// InducedSubgraph returns the subgraph induced by keep (vertex set), along
// with the mapping from new vertex ids to original ids.
func (g *Graph) InducedSubgraph(keep []int) (*Graph, []int) {
	idx := make(map[int]int, len(keep))
	orig := make([]int, len(keep))
	for i, v := range keep {
		idx[v] = i
		orig[i] = v
	}
	sub := New(len(keep))
	for i, v := range keep {
		for _, w := range g.adj[v] {
			if j, ok := idx[w]; ok && i < j {
				sub.addEdge(i, j)
			}
		}
	}
	return sub, orig
}

// RemoveVertices returns the subgraph induced by all vertices NOT in the
// given set, plus the new-to-original id mapping.
func (g *Graph) RemoveVertices(remove map[int]bool) (*Graph, []int) {
	var keep []int
	for v := 0; v < len(g.adj); v++ {
		if !remove[v] {
			keep = append(keep, v)
		}
	}
	return g.InducedSubgraph(keep)
}

// TwoColor attempts a proper 2-coloring by BFS. It returns the color slice
// (0/1 per vertex; isolated vertices get color 0) and true on success, or
// nil and false if the graph contains an odd cycle.
func (g *Graph) TwoColor() ([]int, bool) {
	color := make([]int, len(g.adj))
	for i := range color {
		color[i] = -1
	}
	queue := make([]int, 0, len(g.adj))
	for s := range g.adj {
		if color[s] >= 0 {
			continue
		}
		color[s] = 0
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.adj[u] {
				if color[v] < 0 {
					color[v] = 1 - color[u]
					queue = append(queue, v)
				} else if color[v] == color[u] {
					return nil, false
				}
			}
		}
	}
	return color, true
}

// IsBipartite reports whether g has no odd cycle.
func (g *Graph) IsBipartite() bool {
	_, ok := g.TwoColor()
	return ok
}

// Components returns the vertex sets of the connected components, each
// sorted, ordered by smallest contained vertex.
func (g *Graph) Components() [][]int {
	comp := make([]int, len(g.adj))
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]int
	for s := range g.adj {
		if comp[s] >= 0 {
			continue
		}
		id := len(comps)
		var cur []int
		stack := []int{s}
		comp[s] = id
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cur = append(cur, u)
			for _, v := range g.adj[u] {
				if comp[v] < 0 {
					comp[v] = id
					stack = append(stack, v)
				}
			}
		}
		sort.Ints(cur)
		comps = append(comps, cur)
	}
	return comps
}

// OddCycle returns some odd cycle as a vertex sequence (first == last not
// repeated), or nil if the graph is bipartite. With RemoveVertices it is
// the test reference for oct.DisjointOddCycles, which walks the same BFS
// masked by a removed set instead of on rebuilt subgraphs.
func (g *Graph) OddCycle() []int {
	color := make([]int, len(g.adj))
	parent := make([]int, len(g.adj))
	for i := range color {
		color[i] = -1
		parent[i] = -1
	}
	for s := range g.adj {
		if color[s] >= 0 {
			continue
		}
		color[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.adj[u] {
				if color[v] < 0 {
					color[v] = 1 - color[u]
					parent[v] = u
					queue = append(queue, v)
					continue
				}
				if color[v] != color[u] {
					continue
				}
				// Odd cycle found: join u->root and v->root paths at LCA.
				pu := pathToRoot(parent, u)
				pv := pathToRoot(parent, v)
				iu, iv := len(pu)-1, len(pv)-1
				for iu > 0 && iv > 0 && pu[iu-1] == pv[iv-1] {
					iu--
					iv--
				}
				var cyc []int
				for i := 0; i <= iu; i++ {
					cyc = append(cyc, pu[i])
				}
				for i := iv; i >= 1; i-- {
					cyc = append(cyc, pv[i-1])
				}
				return cyc
			}
		}
	}
	return nil
}

func pathToRoot(parent []int, v int) []int {
	var p []int
	for v >= 0 {
		p = append(p, v)
		v = parent[v]
	}
	return p
}

// CartesianK2 returns the Cartesian product G □ K2: two copies of G (vertex
// v maps to v and v+N) with an edge between each vertex and its copy.
// This is the construction of Lemma 1 (OCT via vertex cover).
func (g *Graph) CartesianK2() *Graph {
	n := len(g.adj)
	p := New(2 * n)
	for u, ns := range g.adj {
		for _, v := range ns {
			if u < v {
				p.addEdge(u, v)
				p.addEdge(u+n, v+n)
			}
		}
	}
	for v := 0; v < n; v++ {
		p.addEdge(v, v+n)
	}
	return p
}

// VerifyVertexCover reports whether cover (as a set) covers every edge.
func (g *Graph) VerifyVertexCover(cover map[int]bool) bool {
	for u, ns := range g.adj {
		for _, v := range ns {
			if u < v && !cover[u] && !cover[v] {
				return false
			}
		}
	}
	return true
}
