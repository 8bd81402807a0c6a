package labeling

import (
	"context"
	"fmt"

	"compact/internal/ilp"
	"compact/internal/oct"
)

// K-layer labeling (FLOW-3D generalization)
//
// COMPACT's binary V/H labeling is the K=2 special case of assigning BDD
// nodes to K stacked nanowire layers: even layers carry horizontal
// wordlines, odd layers vertical bitlines, and a memristor device sits
// between any pair of crossing wires on adjacent layers. A node occupies a
// contiguous interval of layers [Lo, Hi]; when the interval spans more
// than one layer, the node's wires on consecutive layers are joined by
// always-ON via stitches (the K=2 VH label is exactly the interval [0,1]).
// An edge (u, v) is realizable when some adjacent layer pair (d, d+1) has
// u on one side and v on the other. Alignment nodes (roots and the
// 1-terminal) must occupy at least one even layer, so the periphery can
// drive/sense them on a wordline.
//
// The footprint of the stack is the projection: all even layers share one
// row pitch and all odd layers one column pitch, so
//
//	R = max width over even layers, C = max width over odd layers,
//	S = R + C, D = max(R, C)
//
// which reduces to the paper's semiperimeter exactly at K=2. Folding a 2D
// labeling's wordlines across layers 0 and 2 therefore shrinks S roughly
// by half the row count — the FLOW-3D superlinear footprint win.
//
// SolveK runs K <= 2 on the 2D engines (a crossbar needs two wire layers,
// so K=1 is clamped to 2 — documented, not an error) and solves K >= 3
// with a fold-from-2D heuristic plus an interval ILP. Both go through one
// driver (solve), one MIP driver (solveExact) and one engine race
// (solvePortfolio).

// MaxLayers caps the layer count accepted by SolveK and core.Options: the
// interval ILP grows as n·K³ and no published 3D RRAM stack exceeds a
// handful of device layers.
const MaxLayers = 8

// Occupies reports whether layer l lies in [lo, hi].
func Occupies(lo, hi, l int) bool { return lo <= l && l <= hi }

// edgeRealizable reports whether intervals u and v share an adjacent layer
// pair: some device layer d has one endpoint on d and the other on d+1.
func edgeRealizable(loU, hiU, loV, hiV, k int) bool {
	for d := 0; d < k-1; d++ {
		if (Occupies(loU, hiU, d) && Occupies(loV, hiV, d+1)) ||
			(Occupies(loV, hiV, d) && Occupies(loU, hiU, d+1)) {
			return true
		}
	}
	return false
}

// reachesEven reports whether [lo, hi] holds an even (wordline) layer.
func reachesEven(lo, hi int) bool { return lo%2 == 0 || lo < hi }

// LiftLabels converts a 2D labeling into the equivalent 2-layer intervals:
// H → [0,0], V → [1,1], VH → [0,1], and Unlabeled to the empty [1,0] that
// Validate rejects. This is the V/H ↔ layer mapping the K=2 equivalence
// suite pins cell-for-cell.
func LiftLabels(labels []Label) (lo, hi []int) {
	lo = make([]int, len(labels))
	hi = make([]int, len(labels))
	for v, l := range labels {
		switch l {
		case H:
			lo[v], hi[v] = 0, 0
		case V:
			lo[v], hi[v] = 1, 1
		case VH:
			lo[v], hi[v] = 0, 1
		default:
			lo[v], hi[v] = 1, 0
		}
	}
	return lo, hi
}

// SolveK computes a K-layer labeling of p. K=1 is clamped to 2 (a
// crossbar needs two wire layers), and K = 2 runs the 2D engines exactly
// as SolveContext does, so the layered path at K <= 2 is
// semiperimeter-identical to the 2D pipeline by construction. K >= 3 runs
// the fold heuristic and the interval ILP under Options.Method (auto, oct
// and portfolio all race both engines with a shared incumbent; there is no
// OCT analogue above two colors). The deadline discipline matches
// SolveContext: one shared budget, anytime degradation to the best valid
// labeling found.
func SolveK(ctx context.Context, p Problem, k int, opts Options) (*Solution, error) {
	if k > MaxLayers {
		return nil, fmt.Errorf("labeling: %d layers exceeds the %d-layer cap", k, MaxLayers)
	}
	return solve(ctx, p, max(k, 2), opts)
}

// solveKHeuristic is the greedy OCT plus orientation and balancing,
// folded across k layers (MethodHeuristic at K = 2, kfold above).
func solveKHeuristic(p Problem, k int, opts Options) *Solution {
	labels, _ := orientAndBalance(p, oct.Heuristic(p.G))
	sol := foldLabels(p, k, opts.Gamma, labels)
	if k == 2 {
		sol.Method = "heuristic"
	}
	return sol
}

// foldLabels folds a 2D labeling across k layers: VH nodes keep the
// interval [0,1], V nodes sit on odd layers, H nodes are balanced across
// even layers, and a deterministic local search migrates nodes toward
// less-loaded layers of their parity while every move keeps all incident
// edges on adjacent layer pairs. Candidates are generated for every layer
// count 3..k (a k'-layer labeling is valid under k layers), plus the 2D
// lift itself, and the best objective wins — so S is monotone
// non-increasing in K by construction. At k = 2 it is the lift.
func foldLabels(p Problem, k int, gamma float64, labels []Label) *Solution {
	lo2, hi2 := LiftLabels(labels)
	bestLo, bestHi := lo2, hi2
	bestStats := ComputeStats(k, lo2, hi2)
	for kk := 3; kk <= k; kk++ {
		lo, hi := kFold(p, labels, kk)
		st := ComputeStats(k, lo, hi)
		if st.Objective(gamma) < bestStats.Objective(gamma)-1e-9 {
			bestLo, bestHi, bestStats = lo, hi, st
		}
	}
	return &Solution{
		K: k, Lo: bestLo, Hi: bestHi,
		Stats:  bestStats,
		Method: "kfold",
	}
}

// kFold builds the folded assignment on exactly kk layers and runs the
// balancing local search. H nodes live on even layers, V nodes on odd
// layers, VH nodes on [0,1]; the parity split is invariant under every
// move, which is what keeps alignment (even layer for H-side nodes) free.
func kFold(p Problem, labels []Label, kk int) (lo, hi []int) {
	n := p.G.N()
	lo = make([]int, n)
	hi = make([]int, n)
	widths := make([]int, kk)
	// Initial fold: V → 1, VH → [0,1], H balanced between layers 0 and 2.
	for v, l := range labels {
		switch l {
		case V:
			lo[v], hi[v] = 1, 1
		case VH:
			lo[v], hi[v] = 0, 1
			widths[0]++
		default: // H
			if widths[0] <= widths[2] {
				lo[v], hi[v] = 0, 0
			} else {
				lo[v], hi[v] = 2, 2
			}
			widths[lo[v]]++
			continue
		}
		widths[1]++
	}
	// Local search: move a single-layer node to a strictly less-loaded
	// layer of its parity when every incident edge stays realizable. The
	// Σ width² potential strictly decreases per move, so this terminates;
	// the round cap just bounds the worst case.
	for round := 0; round < 4*kk; round++ {
		moved := false
		for v := 0; v < n; v++ {
			if lo[v] != hi[v] {
				continue // spanning (VH) nodes stay put
			}
			cur := lo[v]
			bestL, bestW := cur, widths[cur]-2 // require a strict potential drop
			for l := cur % 2; l < kk; l += 2 {
				if l == cur || widths[l] > bestW {
					continue
				}
				ok := true
				for _, u := range p.G.Adj(v) {
					if !edgeRealizable(l, l, lo[u], hi[u], kk) {
						ok = false
						break
					}
				}
				if ok {
					bestL, bestW = l, widths[l]
				}
			}
			if bestL != cur {
				widths[cur]--
				widths[bestL]++
				lo[v], hi[v] = bestL, bestL
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	return lo, hi
}

// shrinkIntervals trims each node's interval from both ends while all
// incident edges stay realizable and alignment nodes keep an even layer:
// the ILP objective only prices the footprint, so it may return slack
// occupancy that would waste via stitches.
func shrinkIntervals(p Problem, k int, lo, hi []int) {
	alignSet := make(map[int]bool, len(p.AlignH))
	for _, v := range p.AlignH {
		alignSet[v] = true
	}
	canUse := func(v, a, b int) bool {
		if alignSet[v] && !reachesEven(a, b) {
			return false
		}
		for _, u := range p.G.Adj(v) {
			if !edgeRealizable(a, b, lo[u], hi[u], k) {
				return false
			}
		}
		return true
	}
	for pass := 0; pass < 2; pass++ {
		for v := range lo {
			for lo[v] < hi[v] && canUse(v, lo[v], hi[v]-1) {
				hi[v]--
			}
			for lo[v] < hi[v] && canUse(v, lo[v]+1, hi[v]) {
				lo[v]++
			}
		}
	}
}

// intervalModel builds FLOW-3D's interval ILP: occupancy binaries x[v][l]
// with contiguity triples, per-edge adjacency helpers, even-layer
// alignment, and integer R/C/D footprint variables carrying the γ-weighted
// objective. The odd-cycle rows and the occupancy floor are the shared
// ones solveExact adds; decoded intervals are trimmed by shrinkIntervals.
func intervalModel(p Problem, k int, opts Options) *exactModel {
	gamma := opts.Gamma
	n := p.G.N()
	mod := ilp.NewModel("k-labeling")
	x := make([][]int, n)
	for v := 0; v < n; v++ {
		x[v] = make([]int, k)
		for l := 0; l < k; l++ {
			x[v][l] = mod.AddVar(fmt.Sprintf("x%d_%d", v, l), 0, 1, ilp.Binary, 0)
		}
	}
	edges := p.G.Edges()
	// y[e][d][dir]: edge e realized on device layer d, dir 0 = (u@d, v@d+1).
	y := make([][][2]int, len(edges))
	for e := range edges {
		y[e] = make([][2]int, k-1)
		for d := 0; d < k-1; d++ {
			y[e][d][0] = mod.AddVar(fmt.Sprintf("y%d_%d_0", e, d), 0, 1, ilp.Binary, 0)
			y[e][d][1] = mod.AddVar(fmt.Sprintf("y%d_%d_1", e, d), 0, 1, ilp.Binary, 0)
		}
	}
	rVar := mod.AddVar("R", 0, float64(n), ilp.Integer, gamma)
	cVar := mod.AddVar("C", 0, float64(n), ilp.Integer, gamma)
	dVar := mod.AddVar("D", 0, float64(n), ilp.Integer, 1-gamma)

	for v := 0; v < n; v++ {
		terms := make([]ilp.Term, k)
		for l := 0; l < k; l++ {
			terms[l] = ilp.Term{Var: x[v][l], Coeff: 1}
		}
		mod.AddConstr("occ", terms, ilp.GE, 1)
		// Contiguity: occupying l1 and l3 forces every layer between them.
		for l1 := 0; l1 < k; l1++ {
			for l2 := l1 + 1; l2 < k; l2++ {
				for l3 := l2 + 1; l3 < k; l3++ {
					mod.AddConstr("contig", []ilp.Term{
						{Var: x[v][l1], Coeff: 1}, {Var: x[v][l3], Coeff: 1}, {Var: x[v][l2], Coeff: -1},
					}, ilp.LE, 1)
				}
			}
		}
	}
	for e, ed := range edges {
		u, v := ed[0], ed[1]
		cover := make([]ilp.Term, 0, 2*(k-1))
		for d := 0; d < k-1; d++ {
			mod.AddConstr("yu", []ilp.Term{{Var: y[e][d][0], Coeff: 1}, {Var: x[u][d], Coeff: -1}}, ilp.LE, 0)
			mod.AddConstr("yv", []ilp.Term{{Var: y[e][d][0], Coeff: 1}, {Var: x[v][d+1], Coeff: -1}}, ilp.LE, 0)
			mod.AddConstr("yu", []ilp.Term{{Var: y[e][d][1], Coeff: 1}, {Var: x[v][d], Coeff: -1}}, ilp.LE, 0)
			mod.AddConstr("yv", []ilp.Term{{Var: y[e][d][1], Coeff: 1}, {Var: x[u][d+1], Coeff: -1}}, ilp.LE, 0)
			cover = append(cover, ilp.Term{Var: y[e][d][0], Coeff: 1}, ilp.Term{Var: y[e][d][1], Coeff: 1})
		}
		mod.AddConstr("edge", cover, ilp.GE, 1)
	}
	for _, v := range p.AlignH {
		terms := make([]ilp.Term, 0, (k+1)/2)
		for l := 0; l < k; l += 2 {
			terms = append(terms, ilp.Term{Var: x[v][l], Coeff: 1})
		}
		mod.AddConstr("align", terms, ilp.GE, 1)
	}
	// Footprint: R bounds every even-layer width, C every odd, D all.
	for l := 0; l < k; l++ {
		terms := make([]ilp.Term, 0, n+1)
		for v := 0; v < n; v++ {
			terms = append(terms, ilp.Term{Var: x[v][l], Coeff: -1})
		}
		side, sideVar := "RgeW", rVar
		if l%2 == 1 {
			side, sideVar = "CgeW", cVar
		}
		mod.AddConstr(side, append(terms, ilp.Term{Var: sideVar, Coeff: 1}), ilp.GE, 0)
		mod.AddConstr("DgeW", append(terms, ilp.Term{Var: dVar, Coeff: 1}), ilp.GE, 0)
	}
	if opts.MaxRows > 0 {
		mod.AddConstr("maxRows", []ilp.Term{{Var: rVar, Coeff: 1}}, ilp.LE, float64(opts.MaxRows))
	}
	if opts.MaxCols > 0 {
		mod.AddConstr("maxCols", []ilp.Term{{Var: cVar, Coeff: 1}}, ilp.LE, float64(opts.MaxCols))
	}

	m := &exactModel{name: "kmip", k: k, mod: mod, occ: x}
	m.encode = func(c *Solution) []float64 {
		inc := make([]float64, mod.NumVars())
		for v := 0; v < n; v++ {
			for l := c.Lo[v]; l <= c.Hi[v]; l++ {
				inc[x[v][l]] = 1
			}
		}
		for e, ed := range edges {
			u, v := ed[0], ed[1]
			for d := 0; d < k-1; d++ {
				if Occupies(c.Lo[u], c.Hi[u], d) && Occupies(c.Lo[v], c.Hi[v], d+1) {
					inc[y[e][d][0]] = 1
				}
				if Occupies(c.Lo[v], c.Hi[v], d) && Occupies(c.Lo[u], c.Hi[u], d+1) {
					inc[y[e][d][1]] = 1
				}
			}
		}
		inc[rVar] = float64(c.Stats.Rows)
		inc[cVar] = float64(c.Stats.Cols)
		inc[dVar] = float64(c.Stats.D)
		return inc
	}
	m.decode = func(sx []float64) (lo, hi []int) {
		lo, hi = make([]int, n), make([]int, n)
		for v := 0; v < n; v++ {
			lo[v], hi[v] = -1, -1
			for l := 0; l < k; l++ {
				if sx[x[v][l]] > 0.5 {
					if lo[v] < 0 {
						lo[v] = l
					}
					hi[v] = l
				}
			}
		}
		shrinkIntervals(p, k, lo, hi)
		return lo, hi
	}
	return m
}
