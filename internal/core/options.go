package core

import (
	"crypto/sha256"
	"fmt"
	"strings"

	"compact/internal/defect"
	"compact/internal/labeling"
)

// DefaultNodeLimit is the BDD construction bound applied when
// Options.NodeLimit is zero.
const DefaultNodeLimit = 4_000_000

// DefaultGamma is the paper's objective weight, used when Gamma is unset.
const DefaultGamma = 0.5

// DefaultRepairAttempts bounds the defect-aware place-verify-retry loop
// when Options.MaxRepairAttempts is zero.
const DefaultRepairAttempts = 3

// DefaultDefectOnFraction is the stuck-ON share of generated defect maps
// when Options.DefectOnFraction is zero.
const DefaultDefectOnFraction = 0.5

// The Gamma zero-value rule
//
// Options is designed so its zero value is the paper's default setup, but
// float64's zero value collides with the legitimate weight γ = 0. The one
// rule, applied everywhere (Canonical, Validate, the synthesis pipeline and
// the compactd wire format):
//
//	Gamma == 0 with GammaSet == false means "defaulted" and resolves to
//	DefaultGamma (0.5). Any other combination — including an explicit
//	Gamma = 0 with GammaSet = true — is taken literally.
//
// Canonical applies the rule and returns options with GammaSet always true,
// so canonicalized options never depend on it again.

// Validate checks that the options are semantically well-formed: Gamma
// must lie in [0,1] (after the zero-value rule above), enum fields must
// hold known values, numeric budgets must be non-negative, and VarOrder —
// when present — must be a permutation of 0..len-1. Synthesize rejects
// invalid options with a descriptive error before doing any work.
func (o Options) Validate() error {
	g := o.Canonical().Gamma
	if g < 0 || g > 1 {
		return fmt.Errorf("core: Gamma %v outside [0,1]", o.Gamma)
	}
	switch o.BDDKind {
	case SBDD, SeparateROBDDs:
	default:
		return fmt.Errorf("core: unknown BDDKind %d", o.BDDKind)
	}
	switch o.Method {
	case labeling.MethodAuto, labeling.MethodOCT, labeling.MethodMIP,
		labeling.MethodHeuristic, labeling.MethodPortfolio:
	default:
		return fmt.Errorf("core: unknown labeling method %d", o.Method)
	}
	if o.TimeLimit < 0 {
		return fmt.Errorf("core: negative TimeLimit %v", o.TimeLimit)
	}
	if o.NodeLimit < 0 {
		return fmt.Errorf("core: negative NodeLimit %d", o.NodeLimit)
	}
	if o.AutoExactLimit < 0 {
		return fmt.Errorf("core: negative AutoExactLimit %d", o.AutoExactLimit)
	}
	if o.MaxRows < 0 || o.MaxCols < 0 {
		return fmt.Errorf("core: negative MaxRows/MaxCols %d/%d", o.MaxRows, o.MaxCols)
	}
	if o.Partition {
		if o.MaxRows < 2 || o.MaxCols < 1 {
			return fmt.Errorf("core: Partition needs per-tile caps (MaxRows >= 2 and MaxCols >= 1, got %d/%d)", o.MaxRows, o.MaxCols)
		}
		if o.Defects != nil && (o.Defects.Rows() < o.MaxRows || o.Defects.Cols() < o.MaxCols) {
			// Every tile is placed onto the same physical array, and tiles
			// may use up to the full per-tile caps — an array smaller than
			// the caps would make placement failures depend on which cuts
			// the splitter happened to choose.
			return fmt.Errorf("core: Partition defect map %dx%d smaller than the per-tile caps %dx%d",
				o.Defects.Rows(), o.Defects.Cols(), o.MaxRows, o.MaxCols)
		}
	}
	// defect.New enforces the same cap on every construction path; this
	// re-check is the options-layer backstop for untrusted request input,
	// so the placement machinery can trust validated options to never name
	// an array whose per-line state would exhaust memory.
	if r, c := o.Defects.Rows(), o.Defects.Cols(); r > defect.MaxDim || c > defect.MaxDim {
		return fmt.Errorf("core: defect map dimensions %dx%d exceed the %d-line cap", r, c, defect.MaxDim)
	}
	if o.VarOrder != nil {
		seen := make([]bool, len(o.VarOrder))
		for _, v := range o.VarOrder {
			if v < 0 || v >= len(o.VarOrder) || seen[v] {
				return fmt.Errorf("core: VarOrder %v is not a permutation of 0..%d", o.VarOrder, len(o.VarOrder)-1)
			}
			seen[v] = true
		}
	}
	if o.DefectRate < 0 || o.DefectRate >= 1 {
		return fmt.Errorf("core: DefectRate %v outside [0,1)", o.DefectRate)
	}
	f := o.Canonical().DefectOnFraction
	if f < 0 || f > 1 {
		return fmt.Errorf("core: DefectOnFraction %v outside [0,1]", o.DefectOnFraction)
	}
	if o.MaxRepairAttempts < 0 {
		return fmt.Errorf("core: negative MaxRepairAttempts %d", o.MaxRepairAttempts)
	}
	if o.Layers < 0 || o.Layers > labeling.MaxLayers {
		return fmt.Errorf("core: Layers %d outside 0..%d", o.Layers, labeling.MaxLayers)
	}
	if o.Layers > 2 {
		// The layered pipeline composes with generated per-plane defect maps
		// only; reject the combinations that would silently fall back to 2D
		// machinery (DESIGN §15).
		if o.Partition {
			return fmt.Errorf("core: Partition is not supported with Layers %d (layered tiling is not implemented)", o.Layers)
		}
		if o.Defects != nil {
			return fmt.Errorf("core: explicit Defects maps are 2D; use DefectRate to generate per-plane maps with Layers %d", o.Layers)
		}
	}
	return nil
}

// Canonical returns the options in canonical form: the Gamma zero-value
// rule is applied (GammaSet is always true afterwards), a zero NodeLimit
// is resolved to DefaultNodeLimit, and VarOrder is copied so the canonical
// value shares no mutable state with the receiver. Two Options values that
// configure the same synthesis canonicalize equal (up to VarOrder slice
// identity), which is what Key hashes for the content-addressed result
// cache.
func (o Options) Canonical() Options {
	c := o
	//lint:ignore floatcmp zero-value sentinel: Gamma==0 with GammaSet unset means "defaulted"
	if c.Gamma == 0 && !c.GammaSet {
		c.Gamma = DefaultGamma
	}
	c.GammaSet = true
	if c.NodeLimit <= 0 {
		c.NodeLimit = DefaultNodeLimit
	}
	if c.VarOrder != nil {
		c.VarOrder = append([]int(nil), c.VarOrder...)
	}
	//lint:ignore floatcmp zero-value sentinel: DefectOnFraction==0 means "defaulted" (generate Defects explicitly for all-stuck-OFF maps)
	if c.DefectOnFraction == 0 {
		c.DefectOnFraction = DefaultDefectOnFraction
	}
	if c.MaxRepairAttempts <= 0 {
		c.MaxRepairAttempts = DefaultRepairAttempts
	}
	if c.Defects != nil {
		c.Defects = c.Defects.Clone()
	}
	if c.Layers < 2 {
		// 0 and 1 both mean the classic two-layer crossbar: a crossbar needs
		// two wire layers, and SolveK applies the same clamp.
		c.Layers = 2
	}
	return c
}

// Key returns a stable content hash of the canonicalized options, in the
// same "sha256:<hex>" form as logic.Network.Fingerprint. Together the two
// strings form the compactd synthesis cache key: identical (network,
// options) pairs — regardless of gate numbering or of how the caller
// spelled the defaults — map to identical keys.
func (o Options) Key() string {
	c := o.Canonical()
	var b strings.Builder
	fmt.Fprintf(&b, "compact-options-v6|gamma=%g|method=%s|bdd=%s|align=%t|timelimit=%d|order=%v|sift=%t|nodelimit=%d|octbackend=%d|autoexact=%d|maxrows=%d|maxcols=%d|partition=%t|layers=%d",
		c.Gamma, c.Method, c.BDDKind, !c.NoAlign, int64(c.TimeLimit), c.VarOrder, c.Sift, c.NodeLimit, c.OCTBackend, c.AutoExactLimit, c.MaxRows, c.MaxCols, c.Partition, c.Layers)
	// Defect configuration is part of the synthesis identity: the same
	// network on differently defective arrays yields different placements
	// (and possibly Unplaceable), so cached results must not alias. Map
	// identity enters via its content digest (defect.Map.Digest is nil-safe).
	fmt.Fprintf(&b, "|defects=%s|drate=%g|don=%g|dseed=%d|repair=%d|marginaware=%t",
		c.Defects.Digest(), c.DefectRate, c.DefectOnFraction, c.DefectSeed, c.MaxRepairAttempts, c.MarginAware)
	sum := sha256.Sum256([]byte(b.String()))
	return fmt.Sprintf("sha256:%x", sum)
}

// MethodFromString parses a labeling method name as used by the CLI and
// the compactd wire format: auto, oct, mip, heuristic, portfolio. The
// empty string means MethodAuto.
func MethodFromString(s string) (labeling.Method, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return labeling.MethodAuto, nil
	case "oct":
		return labeling.MethodOCT, nil
	case "mip":
		return labeling.MethodMIP, nil
	case "heuristic":
		return labeling.MethodHeuristic, nil
	case "portfolio":
		return labeling.MethodPortfolio, nil
	}
	return 0, fmt.Errorf("core: unknown labeling method %q (want auto, oct, mip, heuristic or portfolio)", s)
}

// BDDKindFromString parses a BDD representation name: sbdd or robdds. The
// empty string means SBDD.
func BDDKindFromString(s string) (BDDKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "sbdd":
		return SBDD, nil
	case "robdds":
		return SeparateROBDDs, nil
	}
	return 0, fmt.Errorf("core: unknown BDD kind %q (want sbdd or robdds)", s)
}
