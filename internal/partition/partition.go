package partition

import (
	"context"
	"errors"
	"fmt"

	"compact/internal/bdd"
	"compact/internal/defect"
	"compact/internal/labeling"
	"compact/internal/logic"
	"compact/internal/xbar"
)

// TileResult is one synthesized tile as produced by the TileSynth
// callback: the crossbar design (variables in sub-network input order,
// output rows in sub-network output order) plus the defect-aware
// placement outcome when the synthesis ran against a defective array.
type TileResult struct {
	Design         *xbar.Design
	Placement      *xbar.Placement
	Defects        *defect.Map
	RepairAttempts int
}

// TileSynth synthesizes one sub-function into a single crossbar under
// the per-tile caps, or fails with an error wrapping
// labeling.ErrInfeasible (or bdd.ErrNodeLimit) when the piece does not
// fit — the signal that makes Build cut it smaller. salt varies per
// attempt, letting implementations decorrelate per-tile seeds (defect
// placement) deterministically.
//
// The callback indirection keeps the dependency arrow pointing one way:
// partition knows nothing about internal/core, and core supplies its own
// pipeline as the TileSynth when it falls back to partitioned synthesis.
type TileSynth func(ctx context.Context, sub *logic.Network, salt uint64) (*TileResult, error)

// DefaultMaxTiles bounds a plan's tile count: Build aborts runaway
// decompositions past it.
const DefaultMaxTiles = 512

// Options configures Build.
type Options struct {
	// MaxRows/MaxCols are the per-tile dimension caps. Both must be set
	// (MaxRows >= 2, MaxCols >= 1): partitioning exists to satisfy them.
	MaxRows, MaxCols int
	// Synth synthesizes one piece; required.
	Synth TileSynth
	// Seed seeds the end-to-end parity check of the assembled plan
	// against the source network: exhaustive for networks with at most 14
	// inputs, 512 seeded random vectors beyond.
	Seed uint64
}

// maxFanin bounds gate fanin after normalization. A gate's BDD needs
// roughly fanin+2 nodes even when perfectly balanced, so the bound keeps
// atomic gates well under the semiperimeter budget MaxRows+MaxCols.
func (o Options) maxFanin() int {
	return min(max((o.MaxRows+o.MaxCols-2)/3, 2), 8)
}

// splitWorthy reports whether a synthesis failure means "the piece is too
// big for one tile" — the class of errors cutting the piece smaller can
// fix: dimension-cap infeasibility, BDD blowup, and unplaceability on a
// defective array (a smaller tile leaves the placement search more spare
// lines on the same-sized physical tile). Everything else (context
// expiry, solver bugs) aborts the build.
func splitWorthy(err error) bool {
	return errors.Is(err, labeling.ErrInfeasible) ||
		errors.Is(err, bdd.ErrNodeLimit) ||
		errors.As(err, new(*xbar.Unplaceable))
}

// Build partitions nw into a verified multi-crossbar Plan: normalize
// fanins, then repeatedly try to synthesize each pending piece as one
// tile, cutting pieces that fail with an infeasibility signal — first by
// output splitting (halving the piece's output set, duplicating shared
// cone logic where necessary), then by level cuts (slicing a
// single-output cone at its median logic level, with the frontier gates
// becoming inter-tile nets). The assembled plan is validated and checked
// for end-to-end Eval parity against nw before it is returned — a wrong
// plan is never returned.
func Build(ctx context.Context, nw *logic.Network, opts Options) (*Plan, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if nw == nil || nw.NumOutputs() == 0 {
		return nil, fmt.Errorf("partition: network has no outputs")
	}
	if opts.Synth == nil {
		return nil, fmt.Errorf("partition: Options.Synth is required")
	}
	if opts.MaxRows < 2 || opts.MaxCols < 1 {
		return nil, fmt.Errorf("partition: per-tile caps %dx%d too small (need MaxRows >= 2, MaxCols >= 1)", opts.MaxRows, opts.MaxCols)
	}
	norm, err := normalize(nw, opts.maxFanin())
	if err != nil {
		return nil, err
	}
	prefix := netPrefix(norm.InputNames())
	netSeq := 0
	freshNet := func() string {
		n := fmt.Sprintf("%s%d", prefix, netSeq)
		netSeq++
		return n
	}

	// Primary outputs: input-driven outputs read their input net
	// directly; every other distinct driver gate becomes a root port.
	outputs := make([]OutputRef, norm.NumOutputs())
	gateNet := make(map[int]string)
	var rootPorts []port
	for i, id := range norm.Outputs {
		if norm.Gates[id].Type == logic.Input {
			outputs[i] = OutputRef{Name: norm.OutputNames[i], Net: norm.Gates[id].Name}
			continue
		}
		net, ok := gateNet[id]
		if !ok {
			net = freshNet()
			gateNet[id] = net
			rootPorts = append(rootPorts, port{gate: id, net: net})
		}
		outputs[i] = OutputRef{Name: norm.OutputNames[i], Net: net}
	}

	var tiles []Tile
	queue := []piece{}
	if len(rootPorts) > 0 {
		queue = append(queue, piece{outs: rootPorts, cut: map[int]string{}})
	}
	salt := uint64(0)
	pieceSeq := 0
	for len(queue) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pc := queue[0]
		queue = queue[1:]
		// Forced pre-synthesis split: a crossbar needs one wordline per
		// distinct root plus the input wordline, so a piece with more than
		// MaxRows-1 outputs can never fit — don't waste a BDD build on it.
		if len(pc.outs) > opts.MaxRows-1 {
			a, b := outputSplit(pc)
			queue = append(queue, a, b)
			continue
		}
		sub, ci, err := pc.extract(norm, fmt.Sprintf("%s.p%d", norm.Name, pieceSeq))
		pieceSeq++
		if err != nil {
			return nil, err
		}
		tr, err := opts.Synth(ctx, sub, salt)
		salt++
		if err == nil {
			tile, terr := makeTile(sub, tr)
			if terr != nil {
				return nil, terr
			}
			tiles = append(tiles, tile)
			if len(tiles)+len(queue) > DefaultMaxTiles {
				return nil, fmt.Errorf("partition: decomposition exceeds %d tiles (caps %dx%d too tight for %s)",
					DefaultMaxTiles, opts.MaxRows, opts.MaxCols, nw.Name)
			}
			continue
		}
		if !splitWorthy(err) {
			return nil, err
		}
		if len(pc.outs) > 1 {
			a, b := outputSplit(pc)
			queue = append(queue, a, b)
			continue
		}
		up, down, cerr := levelCut(norm, pc, ci, freshNet)
		if cerr != nil {
			// The piece is a single cone of depth < 2 — one gate — and
			// still does not fit: no cut can help. Surface the synthesis
			// error (which wraps the infeasibility signal) with context.
			return nil, fmt.Errorf("partition: piece %s is atomic but does not fit %dx%d: %w",
				sub.Name, opts.MaxRows, opts.MaxCols, err)
		}
		queue = append(queue, up, down)
		if len(tiles)+len(queue) > DefaultMaxTiles {
			return nil, fmt.Errorf("partition: decomposition exceeds %d tiles (caps %dx%d too tight for %s)",
				DefaultMaxTiles, opts.MaxRows, opts.MaxCols, nw.Name)
		}
	}

	tiles, err = topoSort(tiles, norm.InputNames())
	if err != nil {
		return nil, err
	}
	for i := range tiles {
		tiles[i].Name = fmt.Sprintf("t%d", i)
	}
	plan := &Plan{
		Name:        nw.Name,
		Fingerprint: nw.Fingerprint(),
		Inputs:      nw.InputNames(),
		Outputs:     outputs,
		Tiles:       tiles,
	}
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("partition: assembled plan invalid: %w", err)
	}
	if err := plan.Verify64(nw.Eval64, 14, 512, opts.Seed|1); err != nil {
		return nil, fmt.Errorf("partition: plan fails parity against the source network: %w", err)
	}
	return plan, nil
}

// makeTile checks a TileResult against its sub-network and wraps it as a
// plan tile: the design's variables must line up with the sub-network's
// inputs (which are the nets to bind) and its output rows with the
// sub-network's outputs.
func makeTile(sub *logic.Network, tr *TileResult) (Tile, error) {
	if tr == nil || tr.Design == nil {
		return Tile{}, fmt.Errorf("partition: TileSynth returned no design for %s", sub.Name)
	}
	d := tr.Design
	if got, want := d.NumVars(), sub.NumInputs(); got != want {
		return Tile{}, fmt.Errorf("partition: tile for %s has %d variables, sub-network %d inputs", sub.Name, got, want)
	}
	if got, want := len(d.Outputs), sub.NumOutputs(); got != want {
		return Tile{}, fmt.Errorf("partition: tile for %s has %d output rows, sub-network %d outputs", sub.Name, got, want)
	}
	return Tile{
		Inputs:         sub.InputNames(),
		Outputs:        append([]string(nil), sub.OutputNames...),
		Design:         d,
		Placement:      tr.Placement,
		Defects:        tr.Defects,
		RepairAttempts: tr.RepairAttempts,
	}, nil
}

// outputSplit halves a multi-output piece. The two halves share the cut
// map (read-only) and may duplicate shared cone logic — the price of
// making progress when a joint synthesis does not fit.
func outputSplit(pc piece) (piece, piece) {
	k := (len(pc.outs) + 1) / 2
	return piece{outs: pc.outs[:k:k], cut: pc.cut}, piece{outs: pc.outs[k:], cut: pc.cut}
}

// levelCut slices a single-output piece at its median logic level: the
// frontier — internal gates at or below the median that feed gates above
// it — becomes a set of fresh nets; the upstream piece computes the
// frontier, the downstream piece computes the original output with the
// frontier in its cut. Fails when the cone's depth is below 2 (a single
// gate cannot be cut).
func levelCut(norm *logic.Network, pc piece, ci coneInfo, freshNet func() string) (up, down piece, err error) {
	if len(pc.outs) != 1 {
		return up, down, fmt.Errorf("partition: levelCut on %d-output piece", len(pc.outs))
	}
	lv := pieceLevels(norm, ci)
	depth := lv[pc.outs[0].gate]
	if depth < 2 {
		return up, down, fmt.Errorf("partition: cone of depth %d cannot be cut", depth)
	}
	mid := depth / 2
	internal := make(map[int]bool, len(ci.internal))
	for _, id := range ci.internal {
		internal[id] = true
	}
	frontier := make(map[int]bool)
	for _, id := range ci.internal {
		if lv[id] <= mid {
			continue
		}
		for _, f := range norm.Gates[id].Fanin {
			if internal[f] && lv[f] <= mid {
				frontier[f] = true
			}
		}
	}
	if len(frontier) == 0 {
		// Unreachable: a depth >= 2 cone has a gate at level mid feeding
		// one at level mid+1. Guard anyway — an empty cut would loop.
		return up, down, fmt.Errorf("partition: empty frontier in depth-%d cone", depth)
	}
	downCut := make(map[int]string, len(pc.cut)+len(frontier))
	for id, net := range pc.cut {
		downCut[id] = net
	}
	var upPorts []port
	for _, id := range sortedKeys(frontier) {
		net := freshNet()
		upPorts = append(upPorts, port{gate: id, net: net})
		downCut[id] = net
	}
	up = piece{outs: upPorts, cut: pc.cut}
	down = piece{outs: pc.outs, cut: downCut}
	return up, down, nil
}

// topoSort orders tiles so every net is defined before it is read
// (primary inputs are defined from the start). Stable: ready tiles keep
// their discovery order. The splitter's net graph is acyclic by
// construction, so a stall is an internal error.
func topoSort(tiles []Tile, primaryInputs []string) ([]Tile, error) {
	defined := make(map[string]bool, len(primaryInputs))
	for _, in := range primaryInputs {
		defined[in] = true
	}
	out := make([]Tile, 0, len(tiles))
	pending := append([]Tile(nil), tiles...)
	for len(pending) > 0 {
		progressed := false
		rest := pending[:0]
		for _, t := range pending {
			ready := true
			for _, net := range t.Inputs {
				if !defined[net] {
					ready = false
					break
				}
			}
			if !ready {
				rest = append(rest, t)
				continue
			}
			for _, net := range t.Outputs {
				defined[net] = true
			}
			out = append(out, t)
			progressed = true
		}
		pending = rest
		if !progressed {
			return nil, fmt.Errorf("partition: tile net graph has a cycle or an undriven net (%d tiles stuck)", len(pending))
		}
	}
	return out, nil
}
