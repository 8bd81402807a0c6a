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
	"time"

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

// Options tunes FindContext.
type Options struct {
	Backend   Backend
	TimeLimit time.Duration // zero = unlimited
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

// FindContext computes an odd cycle transversal of g. Without a time
// limit the result is a minimum OCT; with one, it is a valid OCT that may
// be larger. The search honors the earlier of ctx's deadline and
// opts.TimeLimit, and a cancelled ctx degrades to the best valid OCT found
// so far with Optimal=false. A context that is already dead on entry
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
		cover, optimal := coverILP(ctx, g.CartesianK2(), opts.TimeLimit)
		res = fromCover(g, cover, optimal)
	default:
		res = findBB(ctx, g, opts.TimeLimit)
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
func coverILP(ctx context.Context, p *graph.Graph, limit time.Duration) (map[int]bool, bool) {
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
	sol, err := ilp.SolveContext(ctx, m, ilp.Options{
		TimeLimit: limit, Incumbent: inc, Workers: ilp.DefaultWorkers(),
	})
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
func DisjointOddCycles(g *graph.Graph) [][]int {
	removed := make(map[int]bool)
	var cycles [][]int
	for {
		sub, orig := g.RemoveVertices(removed)
		cyc := sub.OddCycle()
		if cyc == nil {
			return cycles
		}
		mapped := make([]int, len(cyc))
		for i, v := range cyc {
			mapped[i] = orig[v]
			removed[orig[v]] = true
		}
		cycles = append(cycles, mapped)
	}
}

// Heuristic computes a (not necessarily minimum) OCT greedily: BFS
// 2-coloring that moves conflict vertices into the transversal, followed by
// a pruning pass that re-admits unnecessary transversal vertices.
func Heuristic(g *graph.Graph) Result {
	oct := make(map[int]bool)
	// Order vertices by descending degree: high-degree vertices are more
	// likely to close odd cycles, so resolving conflicts at them first
	// keeps the transversal small.
	side := colorGreedy(g, oct)
	// Prune: try returning each OCT vertex (ascending degree) if the
	// residual graph stays bipartite.
	verts := make([]int, 0, len(oct))
	for v := range oct {
		verts = append(verts, v)
	}
	sortByDegree(g, verts)
	for _, v := range verts {
		delete(oct, v)
		if s := tryColor(g, oct); s != nil {
			side = s
		} else {
			oct[v] = true
		}
	}
	for v := range oct {
		side[v] = -1
	}
	return Result{OCT: oct, Side: side, Optimal: len(oct) == 0}
}

func sortByDegree(g *graph.Graph, vs []int) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && g.Degree(vs[j]) < g.Degree(vs[j-1]); j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}

// colorGreedy BFS-colors g, pushing conflicting vertices into oct.
func colorGreedy(g *graph.Graph, oct map[int]bool) []int {
	n := g.N()
	side := make([]int, n)
	for i := range side {
		side[i] = -2 // uncolored
	}
	for s := 0; s < n; s++ {
		if side[s] != -2 || oct[s] {
			continue
		}
		side[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			if oct[u] {
				continue
			}
			for _, v := range g.Adj(u) {
				if oct[v] {
					continue
				}
				if side[v] == -2 {
					side[v] = 1 - side[u]
					queue = append(queue, v)
				} else if side[v] == side[u] {
					// Conflict: move v into the OCT.
					oct[v] = true
					side[v] = -1
				}
			}
		}
	}
	return side
}

// tryColor 2-colors g minus oct, returning nil if not bipartite.
func tryColor(g *graph.Graph, oct map[int]bool) []int {
	n := g.N()
	side := make([]int, n)
	for i := range side {
		side[i] = -2
	}
	for s := 0; s < n; s++ {
		if side[s] != -2 || oct[s] {
			continue
		}
		side[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.Adj(u) {
				if oct[v] {
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
	for v := range oct {
		side[v] = -1
	}
	return side
}
