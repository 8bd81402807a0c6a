// Package wirelimit centralizes the bounds checks every versioned wire
// decoder must apply to attacker-controlled sizes before allocating.
//
// The repo has shipped the same bug class twice: a few-byte request body
// declaring an absurd dimension (a multi-terabyte defect map, a dense
// partition-tile pre-allocation) drove a decoder's up-front allocation out
// of memory. Each fix grew an ad-hoc cap in one decoder. This package is
// the single place those caps live, so new wire formats inherit them and
// the allocbound static analyzer (internal/lint) has one canonical
// sanitizer to recognize: an integer read off the wire that has passed
// CheckDim/CheckCount/CheckCells is bounded, everything else is not.
//
// All checks return a typed *LimitError so transports can map violations
// to client errors (compactd turns them into 400s) and tests can assert on
// the limit that fired rather than on message prose.
package wirelimit

import (
	"fmt"
	"math"
)

// MaxDim bounds each dimension (rows or columns) of any wire-decoded
// crossbar-shaped object: designs, defect maps, partition tiles,
// placement permutations. 65536 lines per side is far beyond any
// fabricated crossbar, and it keeps rows*cols within 2^32 so int64 cell
// keys can never overflow or collide.
const MaxDim = 1 << 16

// MaxCount is the default bound for wire-declared element counts that are
// not crossbar dimensions: parser .i/.o declarations, output lists, cube
// counts. It bounds the per-element allocation a decoder performs before
// it has seen the elements themselves.
const MaxCount = 1 << 20

// defaultMaxCells is CheckCells' default cap: MaxDim*MaxDim, the largest
// extent CheckDim-bounded sides can span, clamped to the largest int on
// 32-bit targets.
const defaultMaxCells = min(MaxDim*MaxDim, math.MaxInt)

// LimitError reports a wire-declared size that exceeds its cap. What names
// the offending quantity ("defect map rows", "pla .i inputs"), Got is the
// declared value and Max the cap it broke (negative values report Max as
// the unchanged cap with Got < 0).
type LimitError struct {
	What string
	Got  int
	Max  int
}

func (e *LimitError) Error() string {
	if e.Got < 0 {
		return fmt.Sprintf("wirelimit: %s is negative (%d)", e.What, e.Got)
	}
	return fmt.Sprintf("wirelimit: %s %d exceeds the %d cap", e.What, e.Got, e.Max)
}

// CheckDim validates a wire-declared crossbar dimension: 0 <= n <= MaxDim.
func CheckDim(what string, n int) error {
	return CheckCount(what, n, MaxDim)
}

// CheckCount validates a wire-declared element count against an explicit
// cap: 0 <= n <= max. A non-positive max falls back to MaxCount.
func CheckCount(what string, n, max int) error {
	if max <= 0 {
		max = MaxCount
	}
	if n < 0 || n > max {
		return &LimitError{What: what, Got: n, Max: max}
	}
	return nil
}

// CheckPerm validates a wire-declared line list or permutation: at most
// MaxDim entries, each in [0, MaxDim]. Structural properties beyond bounds
// (distinctness, completeness) remain the caller's job.
func CheckPerm(what string, perm []int) error {
	if err := CheckDim(what+" length", len(perm)); err != nil {
		return err
	}
	for i, v := range perm {
		if err := CheckDim(fmt.Sprintf("%s entry %d", what, i), v); err != nil {
			return err
		}
	}
	return nil
}

// CheckCells validates a wire-declared rows x cols dense extent: both
// dimensions pass CheckDim and the product stays within maxCells (falling
// back to defaultMaxCells). The product check runs on the already-bounded
// sides, so it cannot overflow.
func CheckCells(what string, rows, cols, maxCells int) error {
	if err := CheckDim(what+" rows", rows); err != nil {
		return err
	}
	if err := CheckDim(what+" cols", cols); err != nil {
		return err
	}
	if maxCells <= 0 {
		maxCells = defaultMaxCells
	}
	if rows > 0 && cols > maxCells/rows {
		return &LimitError{What: what + " cells", Got: rows * cols, Max: maxCells}
	}
	return nil
}
