// Package core is the COMPACT framework: it chains the full synthesis
// pipeline of the paper — Boolean network → (shared) BDD → undirected
// graph → VH-labeling → crossbar design — behind one call, Synthesize.
//
// The pipeline follows Figure 3 of the paper. Options select the BDD kind
// (one shared SBDD, or per-output ROBDDs merged by their 1-terminal as in
// prior work), the labeling method and objective weight γ, the alignment
// constraints of Eq. 7, and the exact-solver time budget. Every produced
// design evaluates on assignments in network-input order and can be
// checked against the source network with Result.Verify.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"compact/internal/bdd"
	"compact/internal/defect"
	"compact/internal/faultinject"
	"compact/internal/labeling"
	"compact/internal/logic"
	"compact/internal/oct"
	"compact/internal/partition"
	"compact/internal/xbar"
)

// BDDKind selects how multi-output functions are represented.
type BDDKind uint8

// BDD kinds.
const (
	// SBDD builds one shared BDD for all outputs (Section VII-A, the
	// COMPACT default).
	SBDD BDDKind = iota
	// SeparateROBDDs builds one ROBDD per output and merges them by the
	// 1-terminal, modeling the prior-work flow the paper compares against.
	SeparateROBDDs
)

func (k BDDKind) String() string {
	if k == SeparateROBDDs {
		return "robdds"
	}
	return "sbdd"
}

// Options configures Synthesize. The zero value gives the paper's default
// configuration: SBDD, γ = 0.5, alignment on, automatic method selection,
// DFS variable order.
type Options struct {
	// Gamma weighs semiperimeter against maximum dimension; the paper's
	// default is 0.5.
	Gamma float64
	// GammaSet must be true to use Gamma = 0 (distinguishes an explicit 0
	// from an unset field).
	GammaSet bool
	// Method picks the VH-labeling solver (default auto).
	Method labeling.Method
	// BDDKind picks SBDD vs per-output ROBDDs.
	BDDKind BDDKind
	// NoAlign disables the Eq. 7 alignment constraints (they are on by
	// default, matching Section VIII).
	NoAlign bool
	// TimeLimit bounds the whole synthesis: it becomes a deadline on one
	// context shared by every stage, so BDD construction time is deducted
	// from the labeling budget and the total wall clock never exceeds the
	// limit. Zero means unlimited. Expiry degrades the labeling to the
	// best feasible solution found (anytime contract), never to an error.
	TimeLimit time.Duration
	// VarOrder fixes the BDD variable order (permutation of input
	// indices); nil uses the DFS fanin-order heuristic.
	VarOrder []int
	// Sift enables rebuild-based sifting on top of the initial order.
	Sift bool
	// NodeLimit bounds BDD construction (default 4,000,000 nodes).
	NodeLimit int
	// OCTBackend selects the exact OCT engine, both for MethodOCT and for
	// the OCT warm start (incumbent and S >= n+k* cut) of MethodMIP: the
	// default odd-cycle branch & bound on G, or Lemma 1's vertex cover of
	// G □ K2 as an ILP.
	OCTBackend oct.Backend
	// AutoExactLimit overrides the auto-method node threshold.
	AutoExactLimit int
	// MaxRows/MaxCols cap the crossbar dimensions (0 = unconstrained);
	// Synthesize fails with a typed *InfeasibleError (matching
	// labeling.ErrInfeasible via errors.Is) when no design fits. Exact
	// enforcement requires the MIP labeling method.
	MaxRows, MaxCols int
	// Partition enables the multi-crossbar fallback: when single-crossbar
	// synthesis is infeasible under MaxRows/MaxCols, the network is cut
	// into sub-functions and synthesized as a verified tile cascade (see
	// internal/partition); the result then carries Plan instead of
	// Design. Requires both caps set.
	Partition bool
	// Defects describes the stuck-at faults of the physical array the
	// design will be programmed onto. When set, synthesis appends a
	// defect-aware placement stage with a verified-repair loop (see
	// place.go): the result additionally carries the placement, the
	// effective design the array computes, and the repair-attempt count —
	// or fails with a typed *xbar.Unplaceable error.
	Defects *defect.Map
	// DefectRate, when Defects is nil and the rate is positive, generates
	// a seeded random defect map exactly covering the synthesized design's
	// dimensions. Must lie in [0,1).
	DefectRate float64
	// DefectOnFraction is the stuck-ON share of generated faults; zero
	// means the default 0.5. (An all-stuck-OFF map cannot be requested via
	// the rate shortcut — build it with defect.Generate and pass Defects.)
	DefectOnFraction float64
	// DefectSeed seeds both defect generation and the placement search, so
	// a (network, options) pair resolves to one deterministic outcome.
	DefectSeed uint64
	// MaxRepairAttempts bounds the candidate placements that may fail
	// verification in the place-verify loop (0 = default 3).
	MaxRepairAttempts int
	// Layers selects the number of crossbar wire layers. 0 (and 1) mean the
	// classic two-layer crossbar. 3 and above enable FLOW-3D synthesis: the
	// BDD graph is K-colored onto a layer stack (labeling.SolveK) and
	// mapped to a K-layer design (xbar.MapStack); the result's Labeling
	// carries the K-layer intervals. Capped at
	// labeling.MaxLayers. Layered synthesis composes with DefectRate
	// (per-plane generated maps) and MarginAware, but not yet with
	// explicit Defects maps or Partition — Validate rejects those
	// combinations.
	Layers int
	// MarginAware adds a secondary electrical objective to defect-aware
	// placement: the loop verifies up to four candidates from the same
	// placement stream the plain loop reads, scores each by its worst-case
	// voltage margin under the default device model (stuck-ON faults near
	// used lines bridge spare lines into the array, so different bindings
	// genuinely differ electrically), and keeps the widest. The plain loop
	// keeps the stream's first verified candidate, and ties keep the
	// earlier candidate, so where every candidate scores the same the
	// result is the plain loop's. A candidate whose scoring fails still
	// counts as verified, so MarginAware never turns a placeable synthesis
	// into a failure.
	MarginAware bool
}

// gamma resolves the effective objective weight via the canonical
// zero-value rule documented in options.go.
func (o Options) gamma() float64 { return o.Canonical().Gamma }

// Result is a synthesized crossbar design plus everything the experiments
// report: BDD statistics, the labeling solution (with solver trace), and
// wall-clock synthesis time.
type Result struct {
	// Design is the crossbar: a 2D design, or a K-layer stack when
	// Options.Layers >= 3.
	Design *xbar.Design
	Graph  *xbar.BDDGraph
	// Labeling is the layer-interval labeling the design was mapped from;
	// for a 2D design it also carries the VH labels.
	Labeling *labeling.Solution
	// Plan is the multi-crossbar cascade produced when Options.Partition
	// is set and single-crossbar synthesis is infeasible under the
	// dimension caps. For partitioned results Design/Graph/Labeling and
	// the BDD statistics are nil/zero; per-tile placements live on the
	// plan's tiles.
	Plan *partition.Plan
	// BDDNodes and BDDEdges use the paper's Table I conventions (nodes
	// include terminals; edges exclude nothing).
	BDDNodes, BDDEdges int
	// Order is the variable order used (input indices, level order).
	Order     []int
	SynthTime time.Duration

	// Placement, Effective and Defects are set when synthesis ran against
	// defect maps: the wire binding of every layer of the logical design
	// onto the physical array, the effective design that array computes
	// under the binding (verified against the source network before the
	// result is returned), and the maps themselves, one per device plane.
	// RepairAttempts counts the candidate placements the repair loop put
	// through verification (1 = the first one verified clean).
	Placement      *xbar.Placement
	Effective      *xbar.Design
	Defects        []*defect.Map
	RepairAttempts int

	// Design3D mirrors Design when Options.Layers >= 3 and is nil
	// otherwise.
	//
	// Deprecated: read Design, which is set for every layer count.
	Design3D *xbar.Design

	network *logic.Network
	mgr     *bdd.Manager // SBDD mode only
	roots   []bdd.Node
}

// Stats returns the crossbar hardware statistics. Partitioned results
// have no single crossbar; their aggregate cost lives in Plan.Stats().
func (r *Result) Stats() xbar.Stats {
	if r.Design == nil {
		return xbar.Stats{}
	}
	return r.Design.Stats()
}

// Synthesize maps the network to a crossbar design.
func Synthesize(nw *logic.Network, opts Options) (*Result, error) {
	return SynthesizeContext(context.Background(), nw, opts)
}

// SynthesizeContext is Synthesize with cooperative cancellation: ctx (plus
// a deadline derived from opts.TimeLimit, when set) is threaded through the
// labeling stack down to individual simplex pivots and branch & bound node
// expansions. When the budget expires mid-solve the best labeling found so
// far is used; a context that is already dead on entry returns
// (nil, ctx.Err()) promptly.
func SynthesizeContext(ctx context.Context, nw *logic.Network, opts Options) (*Result, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid options: %w", err)
	}
	if opts.TimeLimit > 0 {
		// One shared deadline for the whole pipeline; labeling receives it
		// via ctx (TimeLimit is deliberately NOT passed down as well —
		// that would restart the clock after BDD construction).
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.TimeLimit)
		defer cancel()
	}
	opts = opts.Canonical() // resolve Gamma and NodeLimit defaults once
	res, err := synthesizeSingle(ctx, nw, opts)
	if err != nil {
		if opts.Partition && errors.Is(err, labeling.ErrInfeasible) {
			// The function does not fit one tile: fall back to partitioned
			// multi-crossbar synthesis under the same shared deadline.
			plan, perr := synthesizePartitioned(ctx, nw, opts)
			if perr != nil {
				return nil, fmt.Errorf("core: partitioned synthesis (single crossbar infeasible: %v): %w", err, perr)
			}
			return &Result{Plan: plan, network: nw, SynthTime: time.Since(start)}, nil
		}
		return nil, err
	}
	res.SynthTime = time.Since(start)
	return res, nil
}

// synthesizeSingle runs the single-crossbar pipeline on canonical options
// under an already-derived deadline; SynthTime is the caller's to stamp.
func synthesizeSingle(ctx context.Context, nw *logic.Network, opts Options) (*Result, error) {
	order := opts.VarOrder
	if order == nil {
		order = bdd.DFSOrder(nw)
	}
	if opts.Sift {
		order, _ = bdd.SiftRebuild(nw, order, bdd.SiftRebuildOptions{NodeLimit: opts.NodeLimit})
	}

	if err := faultinject.Err(faultinject.StageBDD); err != nil {
		return nil, fmt.Errorf("core: BDD construction: %w", err)
	}
	res := &Result{Order: order, network: nw}
	var bg *xbar.BDDGraph
	switch opts.BDDKind {
	case SeparateROBDDs:
		singles, err := bdd.BuildSeparate(nw, order, opts.NodeLimit)
		if err != nil {
			return nil, fmt.Errorf("core: ROBDD construction: %w", err)
		}
		bg, err = xbar.FromSeparate(singles, nw.InputNames())
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		// Merged node/edge counts: shared terminal counted once, plus the
		// (removed) 0-terminal convention of Table I.
		res.BDDNodes = bg.NumNodes() + 1 // re-add the 0-terminal
		for _, s := range singles {
			res.BDDEdges += s.Manager.CountEdges(s.Root)
		}
	default:
		m, roots, err := bdd.BuildNetwork(nw, order, opts.NodeLimit)
		if err != nil {
			return nil, fmt.Errorf("core: SBDD construction: %w", err)
		}
		res.BDDNodes, res.BDDEdges = m.Count(roots...)
		bg, err = xbar.FromBDD(m, roots, nw.OutputNames)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		res.mgr, res.roots = m, roots // retained for WriteBDDDOT
	}
	res.Graph = bg

	if mode, ok := faultinject.Mode(faultinject.StageLabeling); ok {
		if mode == "infeasible" {
			// Site-specific mode: surface the typed infeasibility error the
			// dimension-cap path produces, so callers' 422 mapping is
			// exercised without crafting an actually infeasible instance.
			return nil, infeasibleError(bg, opts, labeling.ErrInfeasible)
		}
		if err := faultinject.Err(faultinject.StageLabeling); err != nil {
			return nil, fmt.Errorf("core: labeling: %w", err)
		}
	}
	prob := bg.Problem(!opts.NoAlign)
	lopts := labeling.Options{
		Gamma:          opts.gamma(),
		Method:         opts.Method,
		OCTBackend:     opts.OCTBackend,
		AutoExactLimit: opts.AutoExactLimit,
		MaxRows:        opts.MaxRows,
		MaxCols:        opts.MaxCols,
	}
	// A VH-labeling is the K=2 case of a layer-interval labeling, so one
	// solve and one mapping serve every K.
	sol, err := labeling.SolveK(ctx, prob, opts.Layers, lopts)
	if err != nil {
		if errors.Is(err, labeling.ErrInfeasible) {
			// Upgrade the sentinel to the typed error carrying the numbers
			// that explain the refusal (node count, OCT lower bound, caps).
			return nil, infeasibleError(bg, opts, err)
		}
		return nil, fmt.Errorf("core: labeling: %w", err)
	}
	if err := faultinject.Err(faultinject.StageMap); err != nil {
		return nil, fmt.Errorf("core: mapping: %w", err)
	}
	res.Labeling = sol
	if res.Design, err = xbar.MapStack(bg, sol.K, sol.Lo, sol.Hi); err != nil {
		return nil, fmt.Errorf("core: mapping: %w", err)
	}
	if sol.K > 2 {
		res.Design3D = res.Design
	}
	if opts.BDDKind != SeparateROBDDs {
		// Shared-manager designs carry BDD-level variable indices; remap
		// into network-input indexing so Eval takes network-order inputs.
		remap := make([]int, len(order))
		copy(remap, order)
		if err := res.Design.RemapVars(remap, nw.InputNames()); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	maps, err := opts.defectMaps(res.Design)
	if err != nil {
		return nil, fmt.Errorf("core: defect map: %w", err)
	}
	if maps != nil {
		if err := res.placeWithRepair(ctx, maps, opts); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Verify checks the design against the source network, exhaustively for up
// to exhaustiveLimit inputs and with `samples` random vectors beyond. Both
// sides run word-parallel (64 assignments per pass). It returns an error
// naming the first mismatching assignment.
func (r *Result) Verify(exhaustiveLimit, samples int, seed uint64) error {
	if r.Plan != nil {
		if err := r.Plan.Verify64(r.network.Eval64, exhaustiveLimit, samples, seed); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		return nil
	}
	bad := r.Design.VerifyAgainst64(r.network.Eval64, r.network.NumInputs(), exhaustiveLimit, samples, seed)
	if bad != nil {
		return fmt.Errorf("core: design disagrees with network on %v", bad)
	}
	return nil
}

// FormalVerify proves the design equivalent to the source network for all
// input assignments via the symbolic sneak-path closure (xbar.FormalVerify);
// nodeLimit bounds the verifier's BDD (0 = default). Designs of both BDD
// kinds carry network-input variable order. Partitioned results are proven
// by symbolic cascade composition (partition.Plan.FormalVerify) instead.
func (r *Result) FormalVerify(nodeLimit int) error {
	if r.Plan != nil {
		return r.Plan.FormalVerify(r.network, nodeLimit)
	}
	return xbar.FormalVerify(r.Design, r.network, nodeLimit)
}

// Network returns the source network the result was synthesized from.
func (r *Result) Network() *logic.Network { return r.network }

// WriteBDDDOT renders the shared BDD underlying the design in Graphviz
// format. It errors for designs synthesized in SeparateROBDDs mode.
func (r *Result) WriteBDDDOT(w io.Writer) error {
	if r.mgr == nil {
		return fmt.Errorf("core: no shared BDD retained (SeparateROBDDs mode)")
	}
	return r.mgr.WriteDOT(w, r.roots...)
}
