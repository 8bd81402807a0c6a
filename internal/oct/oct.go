// Package oct computes odd cycle transversals (OCTs): vertex sets whose
// removal makes a graph bipartite. The residual 2-coloring comes with
// every transversal.
//
// Two exact backends are provided. The default is a branch and bound on
// the graph itself (search.go): it bounds with packings of vertex-disjoint
// shortest odd cycles and branches on the vertices of one such cycle. The
// other follows Lemma 1 of the COMPACT paper — a vertex belongs to a
// minimum OCT of G iff both of its copies are in a minimum vertex cover of
// the Cartesian product G □ K2 — and solves that cover as a 0-1 program
// with package ilp (the route the paper takes with CPLEX). A greedy
// heuristic covers graphs beyond exact reach.
package oct

import (
	"context"

	"compact/internal/graph"
	"compact/internal/ilp"
	"compact/internal/invariant"
)

// Backend selects the exact OCT engine.
type Backend uint8

// Backends.
const (
	BackendBB  Backend = iota // odd-cycle branch & bound on G (default)
	BackendILP                // Lemma 1: vertex cover of G □ K2 as a 0-1 ILP
)

// Options tunes FindContext. The search's only budget is its context.
type Options struct {
	Backend Backend
}

// Result is an odd cycle transversal plus the residual 2-coloring.
type Result struct {
	// OCT is the transversal vertex set.
	OCT map[int]bool
	// Side assigns every non-OCT vertex 0 or 1 such that no edge of G-OCT
	// joins equal sides; OCT vertices carry -1.
	Side []int
	// Optimal reports whether minimality was proven.
	Optimal bool
	// Nodes counts the nodes the default branch & bound explored (zero
	// for the ILP backend and for bipartite graphs).
	Nodes int
}

// FindContext computes an odd cycle transversal of g. When ctx runs to its
// end the result is a minimum OCT; a ctx that is cancelled or reaches its
// deadline first degrades to the best valid OCT found so far, which may be
// larger, with Optimal=false. A context that is already dead on entry
// returns (Result{}, ctx.Err()). The residual-bipartiteness postcondition
// is re-verified on every exit; a violation (an invariant.Error) means a
// solver bug, not bad input.
func FindContext(ctx context.Context, g *graph.Graph, opts Options) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	var res Result
	switch {
	case g.IsBipartite():
		color, _ := g.TwoColor()
		res = Result{OCT: map[int]bool{}, Side: color, Optimal: true}
	case opts.Backend == BackendILP:
		cover, optimal := coverILP(ctx, g.CartesianK2())
		res = fromCover(g, cover, optimal)
	default:
		res = findBB(ctx, g)
	}
	if err := invariant.ResidualBipartite(g, res.OCT, res.Side); err != nil {
		return Result{}, err
	}
	return res, nil
}

// fromCover converts a vertex cover of G □ K2 into an OCT and 2-coloring.
func fromCover(g *graph.Graph, cover map[int]bool, optimal bool) Result {
	n := g.N()
	oct := make(map[int]bool)
	side := make([]int, n)
	for v := 0; v < n; v++ {
		in0, in1 := cover[v], cover[v+n]
		switch {
		case in0 && in1:
			oct[v] = true
			side[v] = -1
		case in0:
			side[v] = 0
		case in1:
			side[v] = 1
		default:
			// Rung edge (v, v+n) uncovered: cover invalid. Be defensive
			// and place v on side 0; the residual check below catches
			// real breakage.
			side[v] = 0
		}
	}
	res := Result{OCT: oct, Side: side, Optimal: optimal}
	if invariant.ResidualBipartite(g, oct, side) != nil {
		// A correct cover always verifies (see the paper's proof); a
		// timed-out heuristic cover may not. Fall back to the greedy OCT.
		return Heuristic(g)
	}
	return res
}

// coverILP solves minimum vertex cover on p as a 0-1 program, primed with
// the greedy cover as incumbent.
func coverILP(ctx context.Context, p *graph.Graph) (map[int]bool, bool) {
	m := ilp.NewModel("vertex-cover")
	for v := 0; v < p.N(); v++ {
		m.AddVar("x", 0, 1, ilp.Binary, 1)
	}
	for _, e := range p.Edges() {
		m.AddConstr("cover", []ilp.Term{{Var: e[0], Coeff: 1}, {Var: e[1], Coeff: 1}}, ilp.GE, 1)
	}
	greedy := graph.GreedyVertexCover(p)
	inc := make([]float64, p.N())
	for v := range greedy {
		inc[v] = 1
	}
	sol, err := ilp.SolveContext(ctx, m, ilp.Options{Incumbent: inc})
	if err != nil || sol.X == nil {
		return greedy, false
	}
	cover := make(map[int]bool)
	for v, x := range sol.X {
		if x > 0.5 {
			cover[v] = true
		}
	}
	if !p.VerifyVertexCover(cover) {
		return greedy, false
	}
	return cover, sol.Status == ilp.StatusOptimal
}

// DisjointOddCycles greedily packs vertex-disjoint odd cycles. The number
// of cycles is a lower bound on the minimum OCT size (each needs its own
// transversal vertex), which the MIP labeler turns into valid cuts.
//
// Each round is graph.OddCycle on g minus the cycles packed so far, run as
// a BFS masked by the removed set instead of on a rebuilt subgraph. The
// walk visits neighbours in the order graph.InducedSubgraph would list
// them (lower ids ascending, then higher ids in g's adjacency order), so
// the packing is the one the rebuilt subgraphs give. Components a round
// finds bipartite stay so once other components lose vertices, so later
// rounds skip them and resume at the root whose BFS closed the cycle.
func DisjointOddCycles(g *graph.Graph) [][]int {
	n := g.N()
	adj, off := subgraphOrder(g)
	removed := make([]bool, n)
	done := make([]bool, n) // in a component already found bipartite
	mark := make([]int, n)  // round in which the vertex was colored
	color := make([]int8, n)
	parent := make([]int, n)
	queue := make([]int, 0, n)
	var cycles [][]int
	s := 0
	for round := 1; ; round++ {
		var cyc []int
		for ; s < n; s++ {
			if removed[s] || done[s] {
				continue
			}
			mark[s], color[s], parent[s] = round, 0, -1
			queue = append(queue[:0], s)
		bfs:
			for h := 0; h < len(queue); h++ {
				u := queue[h]
				for _, v := range adj[off[u]:off[u+1]] {
					switch {
					case removed[v]:
					case mark[v] != round:
						mark[v], color[v], parent[v] = round, 1-color[u], u
						queue = append(queue, v)
					case color[v] == color[u]:
						cyc = joinAtLCA(parent, u, v)
						break bfs
					}
				}
			}
			if cyc != nil {
				break
			}
			for _, v := range queue {
				done[v] = true
			}
		}
		if cyc == nil {
			return cycles
		}
		for _, v := range cyc {
			removed[v] = true
		}
		cycles = append(cycles, cyc)
	}
}

// subgraphOrder returns g's adjacency in compressed form (the neighbours
// of v are adj[off[v]:off[v+1]]), each list in graph.InducedSubgraph's
// order: lower-id neighbours ascending, then higher-id neighbours in g's
// adjacency order.
func subgraphOrder(g *graph.Graph) (adj, off []int) {
	n := g.N()
	off = make([]int, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + g.Degree(v)
	}
	adj = make([]int, off[n])
	next := append([]int(nil), off[:n]...)
	for u := 0; u < n; u++ {
		for _, w := range g.Adj(u) {
			if u < w {
				adj[next[w]] = u
				next[w]++
			}
		}
	}
	for v := 0; v < n; v++ {
		for _, w := range g.Adj(v) {
			if v < w {
				adj[next[v]] = w
				next[v]++
			}
		}
	}
	return adj, off
}

// joinAtLCA returns the odd cycle closed by the edge {u,v} between two
// same-colored vertices of one BFS tree: u's path up to the lowest common
// ancestor, then v's path back down, as graph.OddCycle lists it.
func joinAtLCA(parent []int, u, v int) []int {
	pu, pv := pathToRoot(parent, u), pathToRoot(parent, v)
	iu, iv := len(pu)-1, len(pv)-1
	for iu > 0 && iv > 0 && pu[iu-1] == pv[iv-1] {
		iu--
		iv--
	}
	cyc := make([]int, 0, iu+iv+1)
	cyc = append(cyc, pu[:iu+1]...)
	for i := iv; i >= 1; i-- {
		cyc = append(cyc, pv[i-1])
	}
	return cyc
}

func pathToRoot(parent []int, v int) []int {
	var p []int
	for ; v >= 0; v = parent[v] {
		p = append(p, v)
	}
	return p
}

// Heuristic computes a (not necessarily minimum) OCT greedily: a BFS
// 2-coloring that moves conflict vertices into the transversal. No
// transversal vertex could be re-admitted afterwards: a vertex joins only
// before it is expanded, so its conflict closes an odd cycle through
// expanded vertices alone, and an expanded vertex never joins.
func Heuristic(g *graph.Graph) Result {
	side, in := colorGreedy(g)
	oct := make(map[int]bool)
	for v, x := range in {
		if x {
			oct[v] = true
		}
	}
	return Result{OCT: oct, Side: side, Optimal: len(oct) == 0}
}

// colorGreedy BFS-colors g from each uncolored vertex in id order,
// marking in the transversal every already-colored neighbour that
// conflicts with the vertex being expanded. It returns the sides
// (transversal vertices carry -1) and the transversal's membership.
func colorGreedy(g *graph.Graph) ([]int, []bool) {
	n := g.N()
	side := make([]int, n)
	in := make([]bool, n)
	for i := range side {
		side[i] = -2 // uncolored
	}
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if side[s] != -2 {
			continue
		}
		side[s] = 0
		queue = append(queue[:0], s)
		for h := 0; h < len(queue); h++ {
			u := queue[h]
			if in[u] {
				continue
			}
			for _, v := range g.Adj(u) {
				if in[v] {
					continue
				}
				if side[v] == -2 {
					side[v] = 1 - side[u]
					queue = append(queue, v)
				} else if side[v] == side[u] {
					// Conflict: move v into the OCT.
					in[v] = true
					side[v] = -1
				}
			}
		}
	}
	return side, in
}

// tryColor 2-colors g minus the vertices marked in in, returning nil if
// that residual graph is not bipartite. Marked vertices carry -1.
func tryColor(g *graph.Graph, in []bool) []int {
	n := g.N()
	side := make([]int, n)
	for i := range side {
		side[i] = -2
	}
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if side[s] != -2 || in[s] {
			continue
		}
		side[s] = 0
		queue = append(queue[:0], s)
		for h := 0; h < len(queue); h++ {
			u := queue[h]
			for _, v := range g.Adj(u) {
				if in[v] {
					continue
				}
				if side[v] == -2 {
					side[v] = 1 - side[u]
					queue = append(queue, v)
				} else if side[v] == side[u] {
					return nil
				}
			}
		}
	}
	for v, x := range in {
		if x {
			side[v] = -1
		}
	}
	return side
}
