// Package compact is a from-scratch Go implementation of COMPACT
// (Thijssen, Jha, Ewetz — DATE 2021): synthesis of flow-based in-memory
// computing crossbars with minimal semiperimeter and maximum dimension.
//
// A Boolean function, given as a logic network (or parsed from BLIF, PLA
// or structural Verilog),
// is represented as a shared binary decision diagram, viewed as an
// undirected graph, VH-labeled — every BDD node becomes a wordline (H), a
// bitline (V), or both (VH) so that each BDD edge is realizable by a
// memristor — and bound to a crossbar design. The number of VH labels is
// the odd cycle transversal of the graph, making the semiperimeter n + k;
// a weighted MIP objective γ·S + (1−γ)·D trades semiperimeter against
// squareness.
//
// The package exposes the full pipeline:
//
//	nw, _ := compact.Parse(file, compact.FormatAuto)
//	res, _ := compact.Synthesize(nw, compact.Options{Gamma: 0.5})
//	res.Design.Render(os.Stdout)        // the programmed crossbar
//	out := res.Design.Eval(inputVector) // sneak-path evaluation
//
// Subsystems live in internal packages: ROBDD/SBDD manager (internal/bdd),
// graph algorithms incl. odd-cycle transversal (internal/graph,
// internal/oct), a bounded-variable-simplex MIP solver (internal/ilp), the
// VH-labeling solvers (internal/labeling), crossbar mapping and evaluation
// (internal/xbar), an electrical validator (internal/spice), the prior-art
// baselines (the staircase labeling of [16] in internal/exp, and
// internal/magic), benchmark generators (internal/bench) and the
// experiment harness (internal/exp). This façade
// re-exports the types a downstream user needs.
package compact

import (
	"context"
	"io"

	"compact/internal/bench"
	"compact/internal/blif"
	"compact/internal/core"
	"compact/internal/labeling"
	"compact/internal/logic"
	"compact/internal/parse"
	"compact/internal/spice"
	"compact/internal/xbar"
)

// Core pipeline types.
type (
	// Options configures Synthesize; the zero value is the paper's
	// default setup (SBDD, γ = 0.5, alignment, auto method).
	Options = core.Options
	// Result carries the design, the labeling solution and statistics.
	Result = core.Result
	// Design is a crossbar: a stack of nanowire layers (two for the classic
	// 2D array) with planes of memristor assignments between them, plus the
	// input and output wordlines.
	Design = xbar.Design
	// Network is a combinational Boolean network.
	Network = logic.Network
	// Builder incrementally constructs a Network.
	Builder = logic.Builder
	// DeviceModel parameterizes the SPICE-lite electrical validation.
	DeviceModel = spice.DeviceModel
)

// BDD representation kinds (Options.BDDKind).
const (
	SBDD           = core.SBDD
	SeparateROBDDs = core.SeparateROBDDs
)

// VH-labeling methods (Options.Method).
const (
	MethodAuto      = labeling.MethodAuto
	MethodOCT       = labeling.MethodOCT
	MethodMIP       = labeling.MethodMIP
	MethodHeuristic = labeling.MethodHeuristic
	// MethodPortfolio races OCT, MIP and the heuristic concurrently with a
	// shared incumbent, returning the best labeling when the first engine
	// proves optimality or the time budget expires (anytime contract).
	MethodPortfolio = labeling.MethodPortfolio
)

// Synthesize maps a Boolean network to a flow-based crossbar design using
// the COMPACT framework.
func Synthesize(nw *Network, opts Options) (*Result, error) {
	return core.Synthesize(nw, opts)
}

// SynthesizeContext is Synthesize with cooperative cancellation: ctx (and
// the deadline derived from Options.TimeLimit, when set) is honored down to
// individual simplex pivots and branch & bound node expansions. When the
// budget expires mid-solve, the best labeling found so far is returned; a
// context that is already dead on entry returns (nil, ctx.Err()) promptly.
func SynthesizeContext(ctx context.Context, nw *Network, opts Options) (*Result, error) {
	return core.SynthesizeContext(ctx, nw, opts)
}

// NewBuilder starts a new Boolean network.
func NewBuilder(name string) *Builder { return logic.NewBuilder(name) }

// Format identifies a circuit input format accepted by Parse.
type Format = parse.Format

// Input formats. FormatAuto detects the format from content: a module
// keyword or Verilog comment selects Verilog, dot directives distinguish
// BLIF (.model/.inputs/.names/...) from PLA (.i/.o/.p/...), and bare cube
// rows select PLA.
const (
	FormatAuto    = parse.Auto
	FormatBLIF    = parse.BLIF
	FormatPLA     = parse.PLA
	FormatVerilog = parse.Verilog
)

// Parse reads one circuit from r in the given format and elaborates it
// into a Network. It is the unified ingestion entry point shared by the
// compact and compactd CLIs and the synthesis server; FormatAuto sniffs
// the format from the content, so callers holding a file of unknown
// provenance can pass it straight through:
//
//	nw, err := compact.Parse(f, compact.FormatAuto)
//
// PLA tables carry no model name; Parse names their networks "pla" (use
// ParsePLA to control the name). The format-specific ParseBLIF, ParsePLA
// and ParseVerilog entry points remain as thin wrappers but new code
// should prefer Parse.
func Parse(r io.Reader, format Format) (*Network, error) {
	return parse.Parse(r, format)
}

// ParseFile opens and parses a circuit file, picking the format from the
// extension (.blif, .pla, .v) and falling back to content sniffing; the
// base name becomes the model name for formats that need one.
func ParseFile(path string) (*Network, error) { return parse.ParseFile(path) }

// ParseBLIF reads a combinational BLIF model.
//
// It is a thin wrapper over Parse(r, FormatBLIF), kept for compatibility;
// new code should prefer Parse.
func ParseBLIF(r io.Reader) (*Network, error) { return parse.Parse(r, parse.BLIF) }

// WriteBLIF serializes a network as BLIF.
func WriteBLIF(w io.Writer, nw *Network) error { return blif.Write(w, nw) }

// ParseVerilog reads a gate-level structural Verilog module.
//
// It is a thin wrapper over Parse(r, FormatVerilog), kept for
// compatibility; new code should prefer Parse.
func ParseVerilog(r io.Reader) (*Network, error) { return parse.Parse(r, parse.Verilog) }

// ParsePLA reads a Berkeley PLA table and elaborates it into a network
// with the given name.
//
// It is a thin wrapper over parse.ParseNamed(r, FormatPLA, name), kept for
// compatibility and for callers that must control the model name; new
// code should prefer Parse.
func ParsePLA(r io.Reader, name string) (*Network, error) {
	return parse.ParseNamed(r, parse.PLA, name)
}

// Benchmark builds one of the bundled benchmark circuits by name (the
// paper's Table I suite); see BenchmarkNames.
func Benchmark(name string) (*Network, bool) {
	g, ok := bench.ByName(name)
	if !ok {
		return nil, false
	}
	return g.Build(), true
}

// BenchmarkNames lists the bundled benchmark circuits.
func BenchmarkNames() []string { return bench.Names() }

// DefaultDeviceModel returns the baseline memristor parameters for
// electrical validation; HighContrastDeviceModel suits large arrays.
func DefaultDeviceModel() DeviceModel { return spice.Default() }

// HighContrastDeviceModel returns HfO2-class device parameters with a 10^5
// on/off ratio.
func HighContrastDeviceModel() DeviceModel { return spice.HighContrast() }

// FormalVerify proves (for all input assignments) that a design computes
// the same functions as its source network, via the symbolic sneak-path
// closure. See also Result.FormalVerify for synthesized results.
func FormalVerify(d *Design, nw *Network, nodeLimit int) error {
	return xbar.FormalVerify(d, nw, nodeLimit)
}

// SimulateElectrical solves the programmed crossbar's resistive network
// and returns the output voltages for one input assignment.
func SimulateElectrical(d *Design, assignment []bool, model DeviceModel) ([]float64, error) {
	return spice.Simulate(d, assignment, model)
}
