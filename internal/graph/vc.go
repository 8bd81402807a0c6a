package graph

import (
	"context"
	"sort"
	"time"
)

// VCResult is the outcome of a vertex cover computation.
type VCResult struct {
	Cover   map[int]bool
	Optimal bool // true if proven minimum
}

// VCOptions tunes MinVertexCoverContext.
type VCOptions struct {
	// TimeLimit bounds the branch & bound search; zero means no limit.
	TimeLimit time.Duration
	// DisableKernel turns off the Nemhauser–Trotter LP kernelization
	// (exposed for ablation benchmarks).
	DisableKernel bool
}

// MinVertexCoverContext computes a minimum vertex cover of an arbitrary
// graph by Nemhauser–Trotter kernelization followed by branch & bound with
// degree reductions and a matching lower bound. The effective deadline is
// the earlier of ctx's deadline and now+opts.TimeLimit; on expiry, or when
// ctx is cancelled, the search stops at the next step check and returns
// the best (always valid) cover found so far with Optimal=false. It serves
// the kernel ablation and, as Lemma 1's vertex cover of G □ K2, is the
// oracle package oct's odd-cycle search is tested against.
func MinVertexCoverContext(ctx context.Context, g *Graph, opts VCOptions) VCResult {
	if ctx == nil {
		ctx = context.Background()
	}
	deadline := time.Time{}
	if opts.TimeLimit > 0 {
		deadline = time.Now().Add(opts.TimeLimit)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}

	cover := make(map[int]bool)
	work := g
	orig := identityMap(g.N())

	if !opts.DisableKernel {
		// NT kernelization: fix x=1 vertices into the cover, drop x=0.
		x := LPRelaxVC(g)
		var keep []int
		for v := 0; v < g.N(); v++ {
			switch x[v] {
			case 2:
				cover[v] = true
			case 1:
				keep = append(keep, v)
			}
		}
		work, orig = g.InducedSubgraph(keep)
	}

	sub, optimal := branchAndBoundVC(ctx, work, deadline)
	for v := range sub {
		cover[orig[v]] = true
	}
	if !g.VerifyVertexCover(cover) {
		// Defensive: should be unreachable; fall back to greedy.
		cover = GreedyVertexCover(g)
		optimal = false
	}
	return VCResult{Cover: cover, Optimal: optimal}
}

func identityMap(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

// vcState is a mutable view of the residual graph during branch & bound:
// alive vertices with dynamic degrees.
type vcState struct {
	g        *Graph
	alive    []bool
	deg      []int
	aliveCnt int
	edgeCnt  int
}

func newVCState(g *Graph) *vcState {
	s := &vcState{
		g:        g,
		alive:    make([]bool, g.N()),
		deg:      make([]int, g.N()),
		aliveCnt: g.N(),
		edgeCnt:  g.M(),
	}
	for v := range s.alive {
		s.alive[v] = true
		s.deg[v] = g.Degree(v)
	}
	return s
}

// remove deletes v from the residual graph, returning it for undo.
func (s *vcState) remove(v int) {
	s.alive[v] = false
	s.aliveCnt--
	for _, w := range s.g.Adj(v) {
		if s.alive[w] {
			s.deg[w]--
			s.edgeCnt--
		}
	}
}

func (s *vcState) restore(v int) {
	for _, w := range s.g.Adj(v) {
		if s.alive[w] {
			s.deg[w]++
			s.edgeCnt++
		}
	}
	s.alive[v] = true
	s.aliveCnt++
}

// lowerBound computes a greedy maximal-matching bound on the residual graph.
func (s *vcState) lowerBound() int {
	used := make([]bool, s.g.N())
	lb := 0
	for v := 0; v < s.g.N(); v++ {
		if !s.alive[v] || used[v] {
			continue
		}
		for _, w := range s.g.Adj(v) {
			if s.alive[w] && !used[w] && w != v {
				used[v] = true
				used[w] = true
				lb++
				break
			}
		}
	}
	return lb
}

// branchAndBoundVC returns a minimum vertex cover of g (as a set over g's
// vertex ids) and whether optimality was proven before the deadline or
// cancellation.
func branchAndBoundVC(ctx context.Context, g *Graph, deadline time.Time) (map[int]bool, bool) {
	if g.M() == 0 {
		return map[int]bool{}, true
	}
	s := newVCState(g)
	best := GreedyVertexCover(g)
	bestSize := len(best)
	timedOut := false
	var cur []int

	checkTime := func() bool {
		if timedOut {
			return true
		}
		if (!deadline.IsZero() && time.Now().After(deadline)) || ctx.Err() != nil {
			timedOut = true
		}
		return timedOut
	}

	if checkTime() {
		// Dead on arrival (pre-cancelled context or expired deadline):
		// return the greedy cover without opening the search.
		return best, false
	}

	steps := 0
	var rec func()
	rec = func() {
		steps++
		if steps%256 == 0 && checkTime() {
			return
		}
		if timedOut {
			return
		}
		// Reductions: collect degree-0 (drop) and degree-1 (take neighbor).
		var removed []int
		var taken []int
		undo := func() {
			for i := len(removed) - 1; i >= 0; i-- {
				s.restore(removed[i])
			}
			cur = cur[:len(cur)-len(taken)]
		}
		for {
			progress := false
			for v := 0; v < s.g.N(); v++ {
				if !s.alive[v] {
					continue
				}
				switch s.deg[v] {
				case 0:
					s.remove(v)
					removed = append(removed, v)
					progress = true
				case 1:
					// Take v's unique alive neighbor.
					for _, w := range s.g.Adj(v) {
						if s.alive[w] {
							cur = append(cur, w)
							taken = append(taken, w)
							s.remove(w)
							removed = append(removed, w)
							progress = true
							break
						}
					}
				}
			}
			if !progress {
				break
			}
		}
		if s.edgeCnt == 0 {
			if len(cur) < bestSize {
				bestSize = len(cur)
				best = make(map[int]bool, len(cur))
				for _, v := range cur {
					best[v] = true
				}
			}
			undo()
			return
		}
		if len(cur)+s.lowerBound() >= bestSize {
			undo()
			return
		}
		// Branch on a maximum-degree vertex.
		bv, bd := -1, -1
		for v := 0; v < s.g.N(); v++ {
			if s.alive[v] && s.deg[v] > bd {
				bv, bd = v, s.deg[v]
			}
		}
		// Branch 1: bv in cover.
		cur = append(cur, bv)
		s.remove(bv)
		rec()
		s.restore(bv)
		cur = cur[:len(cur)-1]
		// Branch 2: all neighbors of bv in cover.
		var nbrs []int
		for _, w := range s.g.Adj(bv) {
			if s.alive[w] {
				nbrs = append(nbrs, w)
			}
		}
		if len(cur)+len(nbrs) < bestSize {
			for _, w := range nbrs {
				cur = append(cur, w)
				s.remove(w)
			}
			s.remove(bv) // bv is now isolated
			rec()
			s.restore(bv)
			for i := len(nbrs) - 1; i >= 0; i-- {
				s.restore(nbrs[i])
			}
			cur = cur[:len(cur)-len(nbrs)]
		}
		undo()
	}
	rec()
	return best, !timedOut
}

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
