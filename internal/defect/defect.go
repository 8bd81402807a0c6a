// Package defect models manufacturing faults of a memristive crossbar:
// individual devices stuck at low resistance (stuck-ON, the cell always
// conducts) or at high resistance (stuck-OFF, the cell never conducts).
//
// A Map describes one physical array: its dimensions and the set of faulty
// cells. Maps are generated deterministically from a seed at configurable
// rates (Generate), loaded from the versioned JSON wire format (see
// json.go), and content-addressed via Digest so a defect map can
// participate in compactd's synthesis cache key. The placement machinery
// that maps a logical design onto a defective array lives in
// internal/xbar (Place); this package is deliberately free of crossbar
// dependencies so every layer of the pipeline can speak "defect map".
package defect

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"

	"compact/internal/wirelimit"
)

// Kind classifies one faulty device.
type Kind uint8

// Fault kinds. The zero value is reserved for "no fault" so that map
// lookups can distinguish absence from either stuck state.
const (
	StuckOff Kind = iota + 1 // device is permanently high-resistance: never conducts
	StuckOn                  // device is permanently low-resistance: always conducts
)

// String returns the wire name of the kind ("off" / "on").
func (k Kind) String() string {
	switch k {
	case StuckOff:
		return "off"
	case StuckOn:
		return "on"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Cell is one faulty device at a physical array position.
type Cell struct {
	Row, Col int
	Kind     Kind
}

// Map is the defect map of one physical crossbar array. The zero value is
// unusable; construct with New, Generate or by decoding the JSON wire
// format. A nil *Map behaves as a fault-free array of unknown (zero)
// dimensions in the read accessors, which lets callers thread "no defect
// model" through APIs without special cases.
type Map struct {
	rows, cols int
	faults     map[int64]Kind
}

// MaxDim bounds each dimension of a defect map. The wire format reaches
// New from untrusted request JSON, and because the format is sparse a
// few-byte body could otherwise declare a multi-terabyte array and drive
// the placement machinery — which allocates per-physical-line state —
// out of memory. The cap is wirelimit.MaxDim, shared with every other
// wire-decoded crossbar dimension: 65536 lines per side is far beyond any
// fabricated crossbar, and it keeps rows*cols within 2^32 so the int64
// cell keys can never overflow or collide.
const MaxDim = wirelimit.MaxDim

// New returns an empty (fault-free) defect map for a rows x cols array.
// Dimensions must lie in [0, MaxDim].
func New(rows, cols int) (*Map, error) {
	if err := wirelimit.CheckDim("defect map rows", rows); err != nil {
		return nil, fmt.Errorf("defect: %v", err)
	}
	if err := wirelimit.CheckDim("defect map cols", cols); err != nil {
		return nil, fmt.Errorf("defect: %v", err)
	}
	return &Map{rows: rows, cols: cols, faults: make(map[int64]Kind)}, nil
}

func (m *Map) key(r, c int) int64 { return int64(r)*int64(m.cols) + int64(c) }

// Rows returns the physical array's row count (0 for nil).
func (m *Map) Rows() int {
	if m == nil {
		return 0
	}
	return m.rows
}

// Cols returns the physical array's column count (0 for nil).
func (m *Map) Cols() int {
	if m == nil {
		return 0
	}
	return m.cols
}

// Len returns the number of faulty cells (0 for nil).
func (m *Map) Len() int {
	if m == nil {
		return 0
	}
	return len(m.faults)
}

// Set marks the device at (r, c) as stuck with the given kind, replacing
// any previous fault there.
func (m *Map) Set(r, c int, k Kind) error {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		return fmt.Errorf("defect: cell (%d,%d) outside %dx%d", r, c, m.rows, m.cols)
	}
	if k != StuckOff && k != StuckOn {
		return fmt.Errorf("defect: unknown fault kind %d", uint8(k))
	}
	m.faults[m.key(r, c)] = k
	return nil
}

// At reports the fault at (r, c), if any. Out-of-range positions and nil
// maps report no fault.
func (m *Map) At(r, c int) (Kind, bool) {
	if m == nil || r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		return 0, false
	}
	k, ok := m.faults[m.key(r, c)]
	return k, ok
}

// Count returns the number of stuck-ON and stuck-OFF cells.
func (m *Map) Count() (stuckOn, stuckOff int) {
	if m == nil {
		return 0, 0
	}
	for _, k := range m.faults {
		if k == StuckOn {
			stuckOn++
		} else {
			stuckOff++
		}
	}
	return stuckOn, stuckOff
}

// Cells returns the faulty cells in row-major order. The deterministic
// order makes serialization, digests and iteration reproducible.
func (m *Map) Cells() []Cell {
	if m == nil {
		return nil
	}
	// A key is row*cols+col < 2^32, so key order is row-major and the kind
	// fits in the low bits below it.
	packed := make([]int64, 0, len(m.faults))
	for key, k := range m.faults {
		packed = append(packed, key<<8|int64(k))
	}
	slices.Sort(packed)
	out := make([]Cell, len(packed))
	for i, v := range packed {
		key := v >> 8
		out[i] = Cell{Row: int(key / int64(m.cols)), Col: int(key % int64(m.cols)), Kind: Kind(v & 0xff)}
	}
	return out
}

// Clone returns a deep copy (nil clones to nil).
func (m *Map) Clone() *Map {
	if m == nil {
		return nil
	}
	c := &Map{rows: m.rows, cols: m.cols, faults: make(map[int64]Kind, len(m.faults))}
	for k, v := range m.faults {
		c.faults[k] = v
	}
	return c
}

// Digest returns a stable content hash of the map in the same
// "sha256:<hex>" form as logic.Network.Fingerprint and core.Options.Key.
// Two maps with the same dimensions and fault set digest equal regardless
// of construction order; a nil map digests to "none".
func (m *Map) Digest() string {
	if m == nil {
		return "none"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "compact-defects-v1|%dx%d", m.rows, m.cols)
	for _, c := range m.Cells() {
		fmt.Fprintf(&b, "|%d,%d,%s", c.Row, c.Col, c.Kind)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return fmt.Sprintf("sha256:%x", sum)
}

// splitmix64 is the deterministic PRNG behind Generate: tiny, seedable and
// stable across platforms, so a (dims, rate, seed) triple always yields
// the same map — the property the synthesis cache key relies on.
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

// Generate builds a seeded random defect map: every device is faulty
// independently with probability rate, and a faulty device is stuck-ON
// with probability onFraction (stuck-OFF otherwise). Generation is fully
// deterministic in (rows, cols, rate, onFraction, seed).
func Generate(rows, cols int, rate, onFraction float64, seed uint64) (*Map, error) {
	if rate < 0 || rate > 1 {
		return nil, fmt.Errorf("defect: rate %v outside [0,1]", rate)
	}
	if onFraction < 0 || onFraction > 1 {
		return nil, fmt.Errorf("defect: onFraction %v outside [0,1]", onFraction)
	}
	m, err := New(rows, cols)
	if err != nil {
		return nil, err
	}
	state := seed ^ 0xdeadbeefcafef00d
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if unitFloat(&state) >= rate {
				continue
			}
			k := StuckOff
			if unitFloat(&state) < onFraction {
				k = StuckOn
			}
			m.faults[m.key(r, c)] = k
		}
	}
	return m, nil
}
