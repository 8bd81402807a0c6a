package spice

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Per-device variation
//
// Real memristive arrays do not have one R_on and one R_off: every device
// draws its resistances from a distribution, conventionally log-normal
// (R = R_nominal * exp(N(0, sigma))) for both cycle-to-cycle and
// device-to-device spread. A ResistanceMap pins one concrete draw for a
// whole physical array so a simulation can see per-device hot spots — a
// marginal device in the middle of a long sneak path — which the old
// one-global-model-per-trial approximation could not.
//
// Sampling follows internal/defect's determinism discipline: splitmix64
// over a uint64 seed, row-major device order, so a (dims, model, variation,
// seed) quadruple always yields the same map on every platform. That
// determinism is what lets a Monte Carlo report participate in compactd's
// content-addressed cache and what the byte-identical-report regression
// test pins.

// Variation describes log-normal device-to-device spread: each device's on
// and off resistances are multiplied by exp(N(0, sigma)).
type Variation struct {
	SigmaOn  float64 // log-std of the on-state resistance
	SigmaOff float64 // log-std of the off-state resistance
}

// Validate checks the spread parameters. Sigmas must be finite and
// non-negative; magnitude caps are a wire-layer concern (the compactd
// decoder bounds them before they reach here).
func (v Variation) Validate() error {
	for _, s := range [...]float64{v.SigmaOn, v.SigmaOff} {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return errors.New("spice: variation sigma must be finite")
		}
		if s < 0 {
			return errors.New("spice: variation sigma must be non-negative")
		}
	}
	return nil
}

// Key returns the canonical content string of the variation, a fragment of
// compactd's /v1/margin cache key.
func (v Variation) Key() string {
	return fmt.Sprintf("son=%g|soff=%g", v.SigmaOn, v.SigmaOff)
}

// Key returns the canonical content string of the device model, a fragment
// of compactd's /v1/margin cache key.
func (m DeviceModel) Key() string {
	return fmt.Sprintf("ron=%g|roff=%g|rsense=%g|rdriver=%g|vin=%g",
		m.ROn, m.ROff, m.RSense, m.RDriver, m.Vin)
}

// ResistanceMap holds the concrete on/off resistance of every device of a
// rows x cols physical array, row-major. Positions are physical: when a
// design is placed, logical cell (r, c) of plane p reads the device at
// (Perms[p][r], Perms[p+1][c]).
type ResistanceMap struct {
	Rows, Cols int
	ROn, ROff  []float64 // len Rows*Cols each, row-major
}

// Validate checks dimensions, lengths and positivity.
func (m *ResistanceMap) Validate() error {
	if m == nil {
		return errors.New("spice: nil resistance map")
	}
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("spice: negative resistance map dimensions %dx%d", m.Rows, m.Cols)
	}
	n := m.Rows * m.Cols
	if len(m.ROn) != n || len(m.ROff) != n {
		return fmt.Errorf("spice: resistance map %dx%d has %d/%d entries, want %d", m.Rows, m.Cols, len(m.ROn), len(m.ROff), n)
	}
	for i := range m.ROn {
		if !(m.ROn[i] > 0) || !(m.ROff[i] > 0) {
			return fmt.Errorf("spice: non-positive resistance at device %d", i)
		}
	}
	return nil
}

// OnAt returns the on-state resistance of the device at physical (r, c).
func (m *ResistanceMap) OnAt(r, c int) float64 { return m.ROn[r*m.Cols+c] }

// OffAt returns the off-state resistance of the device at physical (r, c).
func (m *ResistanceMap) OffAt(r, c int) float64 { return m.ROff[r*m.Cols+c] }

// Digest returns a stable content hash of the map in the same
// "sha256:<hex>" form as defect.Map.Digest; a nil map digests to "none".
func (m *ResistanceMap) Digest() string {
	if m == nil {
		return "none"
	}
	h := sha256.New()
	_, _ = fmt.Fprintf(h, "compact-resistances-v1|%dx%d", m.Rows, m.Cols)
	var buf [8]byte
	for _, vals := range [2][]float64{m.ROn, m.ROff} {
		for _, x := range vals {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			_, _ = h.Write(buf[:])
		}
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil))
}

// splitmix64 is the same deterministic PRNG internal/defect generates
// fault maps with: tiny, seedable and stable across platforms.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unitFloat maps a PRNG draw to [0, 1).
func unitFloat(state *uint64) float64 {
	return float64(splitmix64(state)>>11) / float64(1<<53)
}

// normFloat draws a standard normal via Box–Muller. It burns two uniform
// draws per normal (the sine half of the pair is discarded) to stay
// stateless: the stream position after n draws is always 2n, which keeps
// sampling order-independent of any caching.
func normFloat(state *uint64) float64 {
	u1 := 1 - unitFloat(state) // (0, 1]: keeps the log finite
	u2 := unitFloat(state)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// variationSalt decorrelates the resistance stream from defect-map
// generation and vector sampling when callers reuse one root seed.
const variationSalt = 0xc3a5c85c97cb3127

// SampleResistances draws one concrete array: every device's on and off
// resistances scaled by independent log-normal factors, in row-major
// device order. Fully deterministic in (rows, cols, base, v, seed). A
// device whose drawn R_off falls at or below its R_on is kept as drawn —
// the nodal solve decides what such a catastrophic device does to the
// outputs, rather than a bookkeeping rule declaring the trial failed.
func SampleResistances(rows, cols int, base DeviceModel, v Variation, seed uint64) (*ResistanceMap, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("spice: resistance map dimensions %dx%d must be positive", rows, cols)
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if err := v.Validate(); err != nil {
		return nil, err
	}
	n := rows * cols
	m := &ResistanceMap{Rows: rows, Cols: cols, ROn: make([]float64, n), ROff: make([]float64, n)}
	state := seed ^ variationSalt
	for i := 0; i < n; i++ {
		// Both normals are always drawn, so a zero sigma still advances the
		// stream and the off-state draw does not depend on SigmaOn.
		zOn, zOff := normFloat(&state), normFloat(&state)
		m.ROn[i] = base.ROn * math.Exp(zOn*v.SigmaOn)
		m.ROff[i] = base.ROff * math.Exp(zOff*v.SigmaOff)
	}
	return m, nil
}
