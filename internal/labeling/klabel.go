package labeling

import (
	"context"
	"fmt"
	"math"
	"time"

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
// SolveK delegates K <= 2 to the 2D pipeline verbatim (a crossbar needs
// two wire layers, so K=1 is clamped to 2 — documented, not an error) and
// solves K >= 3 with a fold-from-2D heuristic plus an interval ILP, racing
// under the same shared-incumbent portfolio discipline as the 2D solvers.

// MaxLayers caps the layer count accepted by SolveK and core.Options: the
// interval ILP grows as n·K³ and no published 3D RRAM stack exceeds a
// handful of device layers.
const MaxLayers = 8

// KStats are the footprint dimensions implied by a K-layer labeling.
type KStats struct {
	K      int   // wire layers
	Widths []int // wires per layer (occupancy), len K
	R      int   // footprint rows: max width over even layers
	C      int   // footprint cols: max width over odd layers
	S      int   // semiperimeter of the footprint = R + C
	D      int   // max dimension = max(R, C)
}

// Objective evaluates γ·S + (1−γ)·D, the same weighting as the 2D Stats.
func (s KStats) Objective(gamma float64) float64 {
	return gamma*float64(s.S) + (1-gamma)*float64(s.D)
}

// ComputeKStats derives the footprint from per-node layer intervals.
func ComputeKStats(k int, lo, hi []int) KStats {
	st := KStats{K: k, Widths: make([]int, k)}
	for v := range lo {
		for l := lo[v]; l <= hi[v] && l < k; l++ {
			if l >= 0 {
				st.Widths[l]++
			}
		}
	}
	for l, w := range st.Widths {
		if l%2 == 0 {
			if w > st.R {
				st.R = w
			}
		} else if w > st.C {
			st.C = w
		}
	}
	st.S = st.R + st.C
	st.D = st.R
	if st.C > st.D {
		st.D = st.C
	}
	return st
}

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

// ValidateK checks that the intervals solve the K-layer problem: every
// node occupies a non-empty in-range interval, every edge is realizable on
// some adjacent layer pair, and every alignment node reaches an even
// (wordline) layer.
func ValidateK(p Problem, k int, lo, hi []int) error {
	n := p.G.N()
	if len(lo) != n || len(hi) != n {
		return fmt.Errorf("labeling: %d/%d intervals for %d nodes", len(lo), len(hi), n)
	}
	if k < 2 {
		return fmt.Errorf("labeling: %d wire layers (need >= 2)", k)
	}
	for v := 0; v < n; v++ {
		if lo[v] < 0 || hi[v] >= k || lo[v] > hi[v] {
			return fmt.Errorf("labeling: node %d interval [%d,%d] outside 0..%d", v, lo[v], hi[v], k-1)
		}
	}
	for _, e := range p.G.Edges() {
		u, v := e[0], e[1]
		if !edgeRealizable(lo[u], hi[u], lo[v], hi[v], k) {
			return fmt.Errorf("labeling: edge (%d,%d) with intervals [%d,%d]–[%d,%d] has no adjacent layer pair",
				u, v, lo[u], hi[u], lo[v], hi[v])
		}
	}
	for _, v := range p.AlignH {
		even := false
		for l := lo[v]; l <= hi[v]; l++ {
			if l%2 == 0 {
				even = true
				break
			}
		}
		if !even {
			return fmt.Errorf("labeling: alignment node %d interval [%d,%d] reaches no even layer", v, lo[v], hi[v])
		}
	}
	return nil
}

// KSolution is a valid K-layer labeling plus solve metadata.
type KSolution struct {
	K       int
	Lo, Hi  []int // per-node contiguous layer interval
	Stats   KStats
	Optimal bool
	Method  string
	Elapsed time.Duration
	Trace   []ilp.TraceEvent
	Engines []EngineReport
}

// LiftLabels converts a 2D labeling into the equivalent 2-layer intervals:
// H → [0,0], V → [1,1], VH → [0,1]. This is the V/H ↔ layer mapping the
// K=2 equivalence suite pins cell-for-cell.
func LiftLabels(labels []Label) (lo, hi []int) {
	lo = make([]int, len(labels))
	hi = make([]int, len(labels))
	for v, l := range labels {
		switch l {
		case H:
			lo[v], hi[v] = 0, 0
		case V:
			lo[v], hi[v] = 1, 1
		default: // VH (Unlabeled never survives Validate)
			lo[v], hi[v] = 0, 1
		}
	}
	return lo, hi
}

// SolveK computes a K-layer labeling of p. K <= 2 delegates to the 2D
// SolveContext verbatim (K=1 is clamped — a crossbar needs two wire
// layers) and lifts the labels into intervals, so the layered path at
// K <= 2 is semiperimeter-identical to today's pipeline by construction.
// K >= 3 runs the fold heuristic and the interval ILP under Options.Method
// (auto, oct and portfolio all race both engines with a shared incumbent;
// there is no OCT analogue above two colors). The deadline discipline
// matches SolveContext: one shared budget, anytime degradation to the best
// valid labeling found.
func SolveK(ctx context.Context, p Problem, k int, opts Options) (*KSolution, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if k < 2 {
		k = 2
	}
	if k > MaxLayers {
		return nil, fmt.Errorf("labeling: %d layers exceeds the %d-layer cap", k, MaxLayers)
	}
	if k == 2 {
		sol, err := SolveContext(ctx, p, opts)
		if err != nil {
			return nil, err
		}
		lo, hi := LiftLabels(sol.Labels)
		return &KSolution{
			K: 2, Lo: lo, Hi: hi,
			Stats:   ComputeKStats(2, lo, hi),
			Optimal: sol.Optimal,
			Method:  sol.Method,
			Elapsed: sol.Elapsed,
			Trace:   sol.Trace,
			Engines: sol.Engines,
		}, nil
	}

	if opts.TimeLimit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.TimeLimit)
		defer cancel()
	}
	// Provable early infeasibility: each even layer holds at most MaxRows
	// wires and each odd layer at most MaxCols, and every node occupies at
	// least one layer.
	ke, ko := (k+1)/2, k/2
	if opts.MaxRows > 0 && opts.MaxCols > 0 && p.G.N() > ke*opts.MaxRows+ko*opts.MaxCols {
		return nil, fmt.Errorf("labeling: %d graph nodes exceed the %d-layer capacity of budget %dx%d: %w",
			p.G.N(), k, opts.MaxRows, opts.MaxCols, ErrInfeasible)
	}

	var sol *KSolution
	var err error
	switch opts.Method {
	case MethodHeuristic:
		sol = solveKHeuristic(p, k, opts)
	case MethodMIP:
		sol, err = solveKMIP(ctx, p, k, opts, solveKHeuristic(p, k, opts), nil)
	default: // auto, oct, portfolio: race both engines with a shared incumbent
		sol, err = solveKPortfolio(ctx, p, k, opts)
	}
	if err != nil {
		return nil, err
	}
	sol.Elapsed = time.Since(start)
	if err := ValidateK(p, k, sol.Lo, sol.Hi); err != nil {
		return nil, fmt.Errorf("labeling: solver %s produced invalid K-labeling: %w", sol.Method, err)
	}
	if (opts.MaxRows > 0 && sol.Stats.R > opts.MaxRows) ||
		(opts.MaxCols > 0 && sol.Stats.C > opts.MaxCols) {
		return nil, fmt.Errorf("labeling: %s result footprint %dx%d exceeds budget %dx%d: %w",
			sol.Method, sol.Stats.R, sol.Stats.C, opts.MaxRows, opts.MaxCols, ErrInfeasible)
	}
	return sol, nil
}

// solveKHeuristic folds a 2D labeling across K layers: VH nodes keep the
// interval [0,1], V nodes sit on odd layers, H nodes are balanced across
// even layers, and a deterministic local search migrates nodes toward
// less-loaded layers of their parity while every move keeps all incident
// edges on adjacent layer pairs. Candidates are generated for every layer
// count 3..k (a k'-layer labeling is valid under k layers), plus the 2D
// lift itself, and the best objective wins — so S is monotone
// non-increasing in K by construction.
func solveKHeuristic(p Problem, k int, opts Options) *KSolution {
	base := solveHeuristic(p, opts)
	lo2, hi2 := LiftLabels(base.Labels)
	bestLo, bestHi := lo2, hi2
	bestStats := ComputeKStats(k, lo2, hi2)
	for kk := 3; kk <= k; kk++ {
		lo, hi := kFold(p, base.Labels, kk)
		st := ComputeKStats(k, lo, hi)
		if st.Objective(opts.Gamma) < bestStats.Objective(opts.Gamma)-1e-9 {
			bestLo, bestHi, bestStats = lo, hi, st
		}
	}
	return &KSolution{
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
	hasEven := func(a, b int) bool {
		for l := a; l <= b; l++ {
			if l%2 == 0 {
				return true
			}
		}
		return false
	}
	canUse := func(v, a, b int) bool {
		if alignSet[v] && !hasEven(a, b) {
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

// solveKPortfolio mirrors solvePortfolio for the K >= 3 engines: the fold
// heuristic runs first (polynomial, near-instant) and seeds the shared
// incumbent; the interval ILP then prunes against it via BestKnown. With
// one exact engine the race is sequential, but the incumbent-sharing
// contract is identical to the 2D portfolio.
func solveKPortfolio(ctx context.Context, p Problem, k int, opts Options) (*KSolution, error) {
	gamma := opts.Gamma
	shared := newSharedIncumbent()

	hStart := time.Now()
	heur := solveKHeuristic(p, k, opts)
	heur.Elapsed = time.Since(hStart)
	shared.offer(heur.Stats.Objective(gamma))
	reports := []EngineReport{{
		Method:    "kfold",
		Objective: heur.Stats.Objective(gamma),
		Optimal:   heur.Optimal,
		Elapsed:   heur.Elapsed,
	}}

	fits := func(s *KSolution) bool {
		return (opts.MaxRows <= 0 || s.Stats.R <= opts.MaxRows) &&
			(opts.MaxCols <= 0 || s.Stats.C <= opts.MaxCols)
	}
	best, bestName := heur, "kfold"
	mStart := time.Now()
	mip, err := solveKMIP(ctx, p, k, opts, heur, shared.get)
	rep := EngineReport{Method: "kmip", Elapsed: time.Since(mStart), Objective: math.Inf(1)}
	if err != nil {
		rep.Err = err.Error()
		if ctx.Err() == nil {
			return nil, err
		}
	} else if ValidateK(p, k, mip.Lo, mip.Hi) == nil {
		rep.Objective = mip.Stats.Objective(gamma)
		rep.Optimal = mip.Optimal
		shared.offer(rep.Objective)
		switch {
		case fits(mip) && !fits(best):
			best, bestName = mip, "kmip"
		case fits(mip) == fits(best) && rep.Objective < best.Stats.Objective(gamma)-1e-9:
			best, bestName = mip, "kmip"
		case fits(mip) == fits(best) && rep.Objective < best.Stats.Objective(gamma)+1e-9 && mip.Optimal && !best.Optimal:
			best, bestName = mip, "kmip"
		}
	}
	reports = append(reports, rep)
	for i := range reports {
		reports[i].Winner = reports[i].Method == bestName
	}
	return &KSolution{
		K: k, Lo: best.Lo, Hi: best.Hi,
		Stats:   best.Stats,
		Optimal: best.Optimal,
		Method:  "portfolio(" + bestName + ")",
		Trace:   best.Trace,
		Engines: reports,
	}, nil
}

// solveKMIP solves the interval ILP: occupancy binaries x[v][l] with
// contiguity triples, per-edge adjacency helpers, even-layer alignment,
// and integer R/C/D footprint variables carrying the γ-weighted objective.
// The 2D odd-cycle machinery carries over: a node on a single layer has a
// fixed parity and edges connect opposite parities, so every odd cycle
// forces at least one spanning node — the disjoint-cycle cuts and the OCT
// packing bound on total occupancy remain valid for every K.
func solveKMIP(ctx context.Context, p Problem, k int, opts Options, primer *KSolution, bestKnown func() float64) (*KSolution, error) {
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
		if l%2 == 0 {
			mod.AddConstr("RgeW", append(terms, ilp.Term{Var: rVar, Coeff: 1}), ilp.GE, 0)
		} else {
			mod.AddConstr("CgeW", append(terms, ilp.Term{Var: cVar, Coeff: 1}), ilp.GE, 0)
		}
		dterms := make([]ilp.Term, 0, n+1)
		for v := 0; v < n; v++ {
			dterms = append(dterms, ilp.Term{Var: x[v][l], Coeff: -1})
		}
		mod.AddConstr("DgeW", append(dterms, ilp.Term{Var: dVar, Coeff: 1}), ilp.GE, 0)
	}
	if opts.MaxRows > 0 {
		mod.AddConstr("maxRows", []ilp.Term{{Var: rVar, Coeff: 1}}, ilp.LE, float64(opts.MaxRows))
	}
	if opts.MaxCols > 0 {
		mod.AddConstr("maxCols", []ilp.Term{{Var: cVar, Coeff: 1}}, ilp.LE, float64(opts.MaxCols))
	}
	// Strengthening cuts, inherited from the 2D model: single-layer nodes
	// have a fixed parity and every edge joins opposite parities, so any
	// odd cycle forces a node spanning both parities (>= 2 layers). Hence
	// per disjoint odd cycle Σ occupancy >= |C| + 1, and globally total
	// occupancy >= n + kLB with kLB the OCT packing bound.
	cycles := oct.DisjointOddCycles(p.G)
	for _, cyc := range cycles {
		terms := make([]ilp.Term, 0, k*len(cyc))
		for _, v := range cyc {
			for l := 0; l < k; l++ {
				terms = append(terms, ilp.Term{Var: x[v][l], Coeff: 1})
			}
		}
		mod.AddConstr("oddcyc", terms, ilp.GE, float64(len(cyc)+1))
	}
	kLB := len(cycles)
	occTerms := make([]ilp.Term, 0, n*k)
	for v := 0; v < n; v++ {
		for l := 0; l < k; l++ {
			occTerms = append(occTerms, ilp.Term{Var: x[v][l], Coeff: 1})
		}
	}
	mod.AddConstr("occLB", occTerms, ilp.GE, float64(n+kLB))

	// Analytic objective floor: ⌈k/2⌉·R + ⌊k/2⌋·C >= total occupancy
	// >= n + kLB, so S >= (n+kLB)/⌈k/2⌉ and D >= (n+kLB)/k.
	ke := (k + 1) / 2
	analytic := gamma*float64(n+kLB)/float64(ke) + (1-gamma)*float64(n+kLB)/float64(k)

	// Incumbent from the fold heuristic.
	var inc []float64
	if primer != nil {
		inc = make([]float64, mod.NumVars())
		for v := 0; v < n; v++ {
			for l := primer.Lo[v]; l <= primer.Hi[v]; l++ {
				inc[x[v][l]] = 1
			}
		}
		for e, ed := range edges {
			u, v := ed[0], ed[1]
			for d := 0; d < k-1; d++ {
				if Occupies(primer.Lo[u], primer.Hi[u], d) && Occupies(primer.Lo[v], primer.Hi[v], d+1) {
					inc[y[e][d][0]] = 1
				}
				if Occupies(primer.Lo[v], primer.Hi[v], d) && Occupies(primer.Lo[u], primer.Hi[u], d+1) {
					inc[y[e][d][1]] = 1
				}
			}
		}
		inc[rVar] = float64(primer.Stats.R)
		inc[cVar] = float64(primer.Stats.C)
		inc[dVar] = float64(primer.Stats.D)
	}

	// fallback returns the fold incumbent, still carrying a bound: every
	// early exit closes its trace on at least the analytic floor.
	fallback := func(method string, trace []ilp.TraceEvent, nodes int) *KSolution {
		lo := append([]int(nil), primer.Lo...)
		hi := append([]int(nil), primer.Hi...)
		trace, gap := anytimeTrace(trace, primer.Stats.Objective(gamma), analytic, nodes)
		return &KSolution{K: k, Lo: lo, Hi: hi, Stats: primer.Stats, Optimal: gap <= 1e-9, Method: method, Trace: trace}
	}
	// Memory guard: same dense-tableau worst case as the 2D model.
	rows := int64(mod.NumConstrs())
	cols := int64(mod.NumVars()) + 2*rows
	if rows*cols*8 > maxTableauBytes {
		return fallback("kmip-bounded", nil, 0), nil
	}

	sol, err := ilp.SolveContext(ctx, mod, ilp.Options{
		Incumbent: inc, BestKnown: bestKnown, Workers: ilp.DefaultWorkers(),
	})
	if err != nil {
		if ctx.Err() != nil {
			return fallback("kmip-fallback", nil, 0), nil
		}
		return nil, fmt.Errorf("labeling: K-MIP solve: %w", err)
	}
	if sol.Status == ilp.StatusInfeasible {
		return nil, fmt.Errorf("labeling: no %d-layer labeling within %dx%d: %w", k, opts.MaxRows, opts.MaxCols, ErrInfeasible)
	}
	if sol.X == nil && (opts.MaxRows > 0 || opts.MaxCols > 0) {
		return nil, fmt.Errorf("labeling: %d-layer budget %dx%d neither met nor refuted within the time limit",
			k, opts.MaxRows, opts.MaxCols)
	}
	if sol.X == nil {
		return fallback("kmip-fallback", sol.Trace, sol.Nodes), nil
	}
	lo := make([]int, n)
	hi := make([]int, n)
	for v := 0; v < n; v++ {
		lo[v], hi[v] = -1, -1
		for l := 0; l < k; l++ {
			if sol.X[x[v][l]] > 0.5 {
				if lo[v] < 0 {
					lo[v] = l
				}
				hi[v] = l
			}
		}
	}
	shrinkIntervals(p, k, lo, hi)
	st := ComputeKStats(k, lo, hi)
	trace, gap := anytimeTrace(sol.Trace, st.Objective(gamma), analytic, sol.Nodes)
	return &KSolution{
		K: k, Lo: lo, Hi: hi,
		Stats:   st,
		Optimal: sol.Status == ilp.StatusOptimal || gap <= 1e-9,
		Method:  "kmip",
		Trace:   trace,
	}, nil
}
