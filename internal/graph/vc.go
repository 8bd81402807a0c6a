package graph

import "sort"

// GreedyVertexCover computes a (not necessarily minimum) vertex cover by
// repeatedly taking a maximum-degree vertex, then pruning redundant picks.
func GreedyVertexCover(g *Graph) map[int]bool {
	deg := make([]int, g.N())
	alive := make([]bool, g.N())
	edges := g.M()
	for v := 0; v < g.N(); v++ {
		deg[v] = g.Degree(v)
		alive[v] = true
	}
	cover := make(map[int]bool)
	for edges > 0 {
		bv, bd := -1, 0
		for v := 0; v < g.N(); v++ {
			if alive[v] && deg[v] > bd {
				bv, bd = v, deg[v]
			}
		}
		cover[bv] = true
		alive[bv] = false
		for _, w := range g.Adj(bv) {
			if alive[w] {
				deg[w]--
				edges--
			}
		}
	}
	pruneRedundant(g, cover)
	return cover
}

// pruneRedundant removes cover vertices all of whose neighbors are also in
// the cover (iterating to a fixed point in a deterministic order).
func pruneRedundant(g *Graph, cover map[int]bool) {
	vs := make([]int, 0, len(cover))
	for v := range cover {
		vs = append(vs, v)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(vs)))
	for {
		changed := false
		for _, v := range vs {
			if !cover[v] {
				continue
			}
			redundant := true
			for _, w := range g.Adj(v) {
				if !cover[w] {
					redundant = false
					break
				}
			}
			if redundant {
				delete(cover, v)
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}
