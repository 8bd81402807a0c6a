package oct

import (
	"container/heap"
	"fmt"
	"math"
	"slices"

	"compact/internal/graph"
)

// MinViolation is how far below 1 the weight of a cycle ViolatedOddCycles
// returns must lie, so that a returned row is violated by more than the
// LP's own tolerances.
const MinViolation = 1e-6

// ViolatedOddCycles separates Lemma 1's odd-cycle rows. Given a weight
// w(v) per node of g — in the exact labeling models, the node's occupancy
// in an LP solution minus one; negative weights count as 0 — it returns
// simple odd cycles C of g with Σ_{v∈C} w(v) < 1 − MinViolation, each once,
// listed in cycle order. Every odd cycle holds a node of occupancy two or
// more, so Σ_{v∈C} occupancy >= |C| + 1; a returned cycle is a row the LP
// solution violates.
//
// A closed odd walk through s is a path from s⁰ to s¹ in g's bipartite
// double cover, whose nodes are v⁰ and v¹ per node v of g and where each
// edge uv of g joins u⁰v¹ and u¹v⁰. One Dijkstra per start node s over the
// node weights finds the lightest such walk, with the fewest edges among
// equally light ones, and cuts it at its first repeated node until a
// simple odd cycle remains, which weighs no more than the walk. A simple
// odd cycle below the limit is such a walk through each of its nodes, so
// when nothing is returned there is none.
func ViolatedOddCycles(g *graph.Graph, w []float64) [][]int {
	n := g.N()
	wt := make([]float64, n)
	for v := range wt {
		wt[v] = math.Max(w[v], 0)
	}
	limit := 1 - MinViolation
	d := newCoverSearch(n)
	seen := make(map[string]bool)
	var cycles [][]int
	for s := 0; s < n; s++ {
		if wt[s] >= limit || g.Degree(s) < 2 {
			continue
		}
		walk := d.lightestOddWalk(g, wt, s, limit)
		if walk == nil {
			continue
		}
		cyc := simpleOddCycle(walk)
		sum := 0.0
		for _, v := range cyc {
			sum += wt[v]
		}
		if sum >= limit {
			continue // roundoff: the walk summed its weights in another order
		}
		key := slices.Clone(cyc)
		slices.Sort(key)
		if k := fmt.Sprint(key); !seen[k] {
			seen[k] = true
			cycles = append(cycles, cyc)
		}
	}
	return cycles
}

// coverSearch is one Dijkstra's state over the double cover's 2n nodes
// (node 2v+p is v's copy of parity p), reset between starts through the
// list of states it touched.
type coverSearch struct {
	dist    []float64
	hops    []int32
	prev    []int32
	done    []bool
	touched []int32
	queue   coverQueue
}

func newCoverSearch(n int) *coverSearch {
	d := &coverSearch{
		dist: make([]float64, 2*n),
		hops: make([]int32, 2*n),
		prev: make([]int32, 2*n),
		done: make([]bool, 2*n),
	}
	for i := range d.dist {
		d.dist[i] = math.Inf(1)
	}
	return d
}

// lightestOddWalk returns the lightest closed odd walk of g through s
// that weighs less than limit, as its node sequence from s (the closing
// return to s left implicit), or nil. A walk's weight counts w once per
// visit, and s once.
func (d *coverSearch) lightestOddWalk(g *graph.Graph, w []float64, s int, limit float64) []int {
	for _, x := range d.touched {
		d.dist[x], d.done[x] = math.Inf(1), false
	}
	d.touched = d.touched[:0]
	src, dst := int32(2*s), int32(2*s+1)
	d.relax(src, -1, w[s], 0)
	for d.queue.Len() > 0 {
		e := heap.Pop(&d.queue).(coverEntry)
		x := e.state
		if d.done[x] {
			continue // a stale entry: x was settled by a better one
		}
		d.done[x] = true
		if x == dst {
			d.queue = d.queue[:0]
			var walk []int
			for y := d.prev[x]; y >= 0; y = d.prev[y] {
				walk = append(walk, int(y/2))
			}
			slices.Reverse(walk)
			return walk
		}
		flip := 1 - x%2
		for _, u := range g.Adj(int(x / 2)) {
			y := int32(2*u) + flip
			if d.done[y] {
				continue
			}
			nd := e.dist
			if u != s {
				nd += w[u]
			}
			if nd < limit {
				d.relax(y, x, nd, e.hops+1)
			}
		}
	}
	return nil
}

// relax records a route to state y through x when it is lighter than the
// best known one, or as light with fewer edges.
func (d *coverSearch) relax(y, x int32, dist float64, hops int32) {
	if old := d.dist[y]; !(dist < old) && (old < dist || hops >= d.hops[y]) {
		return
	}
	if math.IsInf(d.dist[y], 1) {
		d.touched = append(d.touched, y)
	}
	d.dist[y], d.hops[y], d.prev[y] = dist, hops, x
	heap.Push(&d.queue, coverEntry{dist: dist, hops: hops, state: y})
}

// simpleOddCycle reduces a closed odd walk (its node sequence, the return
// to the first node implicit) to a simple odd cycle on a subset of its
// nodes. At the first repeated node the walk splits into two closed walks
// whose lengths add up to its own, so one of them is odd; that one is kept.
func simpleOddCycle(walk []int) []int {
	for {
		at := make(map[int]int, len(walk))
		i, j := -1, -1
		for k, v := range walk {
			if p, ok := at[v]; ok {
				i, j = p, k
				break
			}
			at[v] = k
		}
		if j < 0 {
			return walk
		}
		if (j-i)%2 == 1 {
			walk = walk[i:j]
		} else {
			walk = append(walk[:i:i], walk[j:]...)
		}
	}
}

type coverEntry struct {
	dist  float64
	hops  int32
	state int32
}

// coverQueue is a min-heap of Dijkstra entries, lighter first and, among
// equally light ones, fewer edges first.
type coverQueue []coverEntry

func (q coverQueue) Len() int { return len(q) }
func (q coverQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	return a.dist < b.dist || (!(b.dist < a.dist) && a.hops < b.hops)
}
func (q coverQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *coverQueue) Push(x interface{}) { *q = append(*q, x.(coverEntry)) }
func (q *coverQueue) Pop() interface{} {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}
