package oct

import (
	"context"
	"slices"
	"time"

	"compact/internal/graph"
)

// findBB is the default exact engine: a branch and bound on g itself. Its
// bound is a greedy packing of vertex-disjoint shortest odd cycles of the
// residual graph (each packed cycle needs its own transversal vertex), and
// it branches on the first packed cycle — one of its vertices must join the
// transversal — excluding each tried vertex from the later sibling branches
// (exclusive branching, Hüffner's graph-bipartization scheme). When ctx is
// cancelled or past its deadline it returns the best valid OCT found so
// far with Optimal=false.
func findBB(ctx context.Context, g *graph.Graph) Result {
	inc := Heuristic(g)
	if c := fromCover(g, graph.GreedyVertexCover(g.CartesianK2()), false); len(c.OCT) < len(inc.OCT) {
		inc = c
	}
	s := newSearch(ctx, g)
	for v := range inc.OCT {
		s.best = append(s.best, v)
	}
	s.node()
	res := inc
	if len(s.best) < len(inc.OCT) {
		oct := make(map[int]bool, len(s.best))
		in := make([]bool, g.N())
		for _, v := range s.best {
			oct[v], in[v] = true, true
		}
		res = Result{OCT: oct, Side: tryColor(g, in)}
	}
	res.Optimal = !s.expired
	res.Nodes = s.nodes
	return res
}

// search is the mutable state of findBB. A vertex is live when it is
// neither in the partial transversal x nor in a cycle already packed by
// the current bound; forbidden vertices stay in the graph but may not
// join x in the current subtree.
type search struct {
	ctx     context.Context
	g       *graph.Graph
	expired bool
	nodes   int

	inX, forbid, used []bool
	x, best           []int

	// BFS work arrays, stamped with epoch instead of being cleared.
	seen, dist, parent []int
	epoch              int
	queue, cyc         []int
}

func newSearch(ctx context.Context, g *graph.Graph) *search {
	n := g.N()
	return &search{
		ctx: ctx, g: g,
		inX: make([]bool, n), forbid: make([]bool, n), used: make([]bool, n),
		seen: make([]int, n), dist: make([]int, n), parent: make([]int, n),
	}
}

// stop reports (and latches) whether the search must end now: ctx is
// cancelled or past its deadline. The clock is read as well because a
// context's timer closes Done only some time after the deadline passes.
func (s *search) stop() bool {
	if !s.expired {
		d, ok := s.ctx.Deadline()
		s.expired = s.ctx.Err() != nil || (ok && time.Now().After(d))
	}
	return s.expired
}

func (s *search) live(v int) bool { return !s.inX[v] && !s.used[v] }

// node explores the subtree below the partial transversal s.x.
func (s *search) node() {
	s.nodes++
	room := len(s.best) - len(s.x)
	if s.stop() || room <= 0 {
		return
	}
	first, packed := s.pack(room)
	if s.expired || packed >= room {
		return
	}
	if packed == 0 {
		// G−x is bipartite and smaller than the incumbent.
		s.best = append(s.best[:0], s.x...)
		return
	}
	// Some vertex of first joins x. Try them by descending residual
	// degree; once tried, a vertex is forbidden for the later siblings.
	branch := first[:0]
	for _, v := range first {
		if !s.forbid[v] {
			branch = append(branch, v)
		}
	}
	deg := make(map[int]int, len(branch))
	for _, v := range branch {
		for _, w := range s.g.Adj(v) {
			if !s.inX[w] {
				deg[v]++
			}
		}
	}
	slices.SortStableFunc(branch, func(a, b int) int { return deg[b] - deg[a] })
	for _, v := range branch {
		s.inX[v] = true
		s.x = append(s.x, v)
		s.node()
		s.x = s.x[:len(s.x)-1]
		s.inX[v] = false
		s.forbid[v] = true
		if s.expired {
			break
		}
	}
	// branch held only unforbidden vertices on entry.
	for _, v := range branch {
		s.forbid[v] = false
	}
}

// pack greedily packs vertex-disjoint shortest odd cycles of G−x, in
// rounds of growing length: round h packs cycles of length 2h+1 until
// none is left, so every packed cycle is a shortest odd cycle of what
// remains. It stops early once room cycles are packed, and reports room
// when a packed cycle has no unforbidden vertex (no transversal exists in
// this subtree). first is a copy of the first packed cycle.
func (s *search) pack(room int) (first []int, packed int) {
	clear(s.used)
	for half := 1; ; half++ {
		for v := 0; v < s.g.N(); v++ {
			for s.live(v) {
				if s.stop() {
					return nil, 0
				}
				c := s.oddCycle(v, half)
				if c == nil {
					break
				}
				free := 0
				for _, u := range c {
					s.used[u] = true
					if !s.forbid[u] {
						free++
					}
				}
				if free == 0 {
					return nil, room
				}
				if packed == 0 {
					first = slices.Clone(c)
				}
				if packed++; packed >= room {
					return first, packed
				}
			}
		}
		if s.residualBipartite() {
			return first, packed
		}
	}
}

// oddCycle searches breadth-first from src over live vertices, up to depth
// half, for an edge joining two vertices of equal depth. Joining both tree
// paths at their common ancestor gives an odd cycle of length at most
// 2·half+1; it returns the cycle's vertices (valid until the next call) or
// nil.
func (s *search) oddCycle(src, half int) []int {
	s.epoch++
	s.seen[src], s.dist[src], s.parent[src] = s.epoch, 0, -1
	q := append(s.queue[:0], src)
	defer func() { s.queue = q }()
	for h := 0; h < len(q); h++ {
		u := q[h]
		du := s.dist[u]
		for _, w := range s.g.Adj(u) {
			if !s.live(w) {
				continue
			}
			if s.seen[w] != s.epoch {
				if du < half {
					s.seen[w], s.dist[w], s.parent[w] = s.epoch, du+1, u
					q = append(q, w)
				}
				continue
			}
			if s.dist[w] == du {
				// Equal depths: climb in lockstep to the common ancestor.
				c := append(s.cyc[:0], u, w)
				for a, b := s.parent[u], s.parent[w]; ; a, b = s.parent[a], s.parent[b] {
					c = append(c, a)
					if a == b {
						break
					}
					c = append(c, b)
				}
				s.cyc = c
				return c
			}
		}
	}
	return nil
}

// residualBipartite 2-colors the live vertices by BFS depth parity.
func (s *search) residualBipartite() bool {
	s.epoch++
	for src := 0; src < s.g.N(); src++ {
		if !s.live(src) || s.seen[src] == s.epoch {
			continue
		}
		s.seen[src], s.dist[src] = s.epoch, 0
		q := append(s.queue[:0], src)
		for h := 0; h < len(q); h++ {
			u := q[h]
			for _, w := range s.g.Adj(u) {
				if !s.live(w) {
					continue
				}
				if s.seen[w] != s.epoch {
					s.seen[w], s.dist[w] = s.epoch, s.dist[u]+1
					q = append(q, w)
				} else if s.dist[w]%2 == s.dist[u]%2 {
					s.queue = q
					return false
				}
			}
		}
		s.queue = q
	}
	return true
}
