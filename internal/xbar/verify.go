package xbar

import "math/bits"

// MaxExhaustiveBits caps the width of exhaustive verification: beyond it
// the 2^nVars enumeration count would overflow int on 32-bit platforms (and
// is computationally absurd on any platform), so VerifyAgainst falls back
// to sampling regardless of the caller's exhaustiveLimit.
const MaxExhaustiveBits = 30

// clampedDefaultSamples is used when the exhaustive→sampling clamp fires
// but the caller asked for zero samples (expecting exhaustive mode to do
// the work): verification must never silently become vacuous.
const clampedDefaultSamples = 4096

// basisWord returns the 64-assignment word of variable i when the batch
// enumerates assignments base..base+63 (base a multiple of 64): bit b is
// bit i of base+b, which for i < 6 depends only on b.
func basisWord(i int) uint64 {
	basis := [6]uint64{
		0xAAAAAAAAAAAAAAAA, // bit 0 of b
		0xCCCCCCCCCCCCCCCC, // bit 1
		0xF0F0F0F0F0F0F0F0, // bit 2
		0xFF00FF00FF00FF00, // bit 3
		0xFFFF0000FFFF0000, // bit 4
		0xFFFFFFFF00000000, // bit 5
	}
	return basis[i]
}

// VerifyAgainst checks the design against a reference evaluator over all
// 2^nVars assignments when nVars <= exhaustiveLimit (clamped to
// MaxExhaustiveBits — wider requests fall back to sampling instead of
// overflowing the enumeration), or over `samples` pseudo-random assignments
// (deterministic LCG seeded with seed) otherwise. It returns the first
// mismatching assignment, or nil if none found. The design side is
// evaluated 64 assignments per pass by one Evaluator of its Wires; the
// reference is called per assignment, on a slice it must not keep (use
// VerifyAgainst64 when a word-parallel reference is available).
func (d *Design) VerifyAgainst(ref func([]bool) []bool, nVars, exhaustiveLimit, samples int, seed uint64) []bool {
	return VerifyEquiv(d.Wires().NewEvaluator().Eval64, ref, nil, nVars, exhaustiveLimit, samples, seed)
}

// VerifyAgainst64 is VerifyAgainst with a word-parallel reference: ref64
// receives one word per variable and must return one word per reference
// output (logic.Network.Eval64 has exactly this shape), so both sides of
// the comparison run 64 assignments per call.
func (d *Design) VerifyAgainst64(ref64 func([]uint64) []uint64, nVars, exhaustiveLimit, samples int, seed uint64) []bool {
	return VerifyEquiv(d.Wires().NewEvaluator().Eval64, nil, ref64, nVars, exhaustiveLimit, samples, seed)
}

// VerifyEquiv is the one exhaustive/sampled verification driver: 2D
// designs, layered stacks and partition cascades all check themselves
// through it, so they share the exact enumeration, sampling order and
// witness semantics. eval receives one word per variable and returns one
// word per output, or an error when the design under test cannot be
// evaluated at all (which counts as a mismatch: the batch's first
// assignment becomes the witness). Each result of eval and ref64 is read
// before the next call, so both may reuse their result slice (as
// Evaluator.Eval64 does). An evaluator and a reference that disagree on
// the output count disagree on the batch's first assignment. Exactly one
// of ref and ref64 must be non-nil; a scalar ref must not keep the slice
// it is passed, which is reused for the next assignment. The returned
// slice is the first mismatching assignment, or nil.
func VerifyEquiv(eval func([]uint64) ([]uint64, error), ref func([]bool) []bool, ref64 func([]uint64) []uint64, nVars, exhaustiveLimit, samples int, seed uint64) []bool {
	if nVars <= exhaustiveLimit {
		if nVars <= MaxExhaustiveBits {
			return verifyExhaustive(eval, ref, ref64, nVars)
		}
		// Exhaustive mode was requested but is unrepresentable; sample
		// instead, and never with zero vectors.
		if samples <= 0 {
			samples = clampedDefaultSamples
		}
	}
	return verifySampled(eval, ref, ref64, nVars, samples, seed)
}

func verifyExhaustive(eval func([]uint64) ([]uint64, error), ref func([]bool) []bool, ref64 func([]uint64) []uint64, nVars int) []bool {
	total := 1 << uint(nVars)
	words := make([]uint64, nVars)
	scratch := make([]bool, nVars)
	for base := 0; base < total; base += 64 {
		n := total - base
		if n > 64 {
			n = 64
		}
		// Bit b of words[i] is bit i of base+b.
		for i := 0; i < nVars; i++ {
			switch {
			case i < 6:
				words[i] = basisWord(i)
			case base&(1<<uint(i)) != 0:
				words[i] = ^uint64(0)
			default:
				words[i] = 0
			}
		}
		if bad := verifyBatch(eval, ref, ref64, words, n, scratch); bad != nil {
			return bad
		}
	}
	return nil
}

func verifySampled(eval func([]uint64) ([]uint64, error), ref func([]bool) []bool, ref64 func([]uint64) []uint64, nVars, samples int, seed uint64) []bool {
	state := seed | 1
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state
	}
	words := make([]uint64, nVars)
	scratch := make([]bool, nVars)
	for s := 0; s < samples; s += 64 {
		n := samples - s
		if n > 64 {
			n = 64
		}
		for i := range words {
			words[i] = 0
		}
		// Generate assignments in the exact scalar LCG order (sample-major,
		// variable-minor) so witnesses and coverage match the pre-word
		// implementation bit for bit.
		for b := 0; b < n; b++ {
			for i := 0; i < nVars; i++ {
				words[i] |= (next() >> 33 & 1) << uint(b)
			}
		}
		if bad := verifyBatch(eval, ref, ref64, words, n, scratch); bad != nil {
			return bad
		}
	}
	return nil
}

// assignment writes assignment b of the batch words into in.
func assignment(in []bool, words []uint64, b int) []bool {
	for i, w := range words {
		in[i] = w>>uint(b)&1 != 0
	}
	return in
}

// verifyBatch compares the evaluator against the reference on assignments
// 0..n-1 of words, returning the lowest-index mismatching assignment, or
// nil. A design that cannot be evaluated at all disagrees by definition;
// the batch's first assignment is the witness. A scalar ref receives each
// assignment in scratch, reused across calls; only a witness is allocated.
func verifyBatch(eval func([]uint64) ([]uint64, error), ref func([]bool) []bool, ref64 func([]uint64) []uint64, words []uint64, n int, scratch []bool) []bool {
	witness := func(b int) []bool { return assignment(make([]bool, len(words)), words, b) }
	got, err := eval(words)
	if err != nil {
		return witness(0)
	}
	if ref64 != nil {
		want := ref64(words)
		if len(got) != len(want) {
			return witness(0)
		}
		var mismatch uint64
		for o := range want {
			mismatch |= want[o] ^ got[o]
		}
		if n < 64 {
			mismatch &= 1<<uint(n) - 1
		}
		if mismatch != 0 {
			return witness(bits.TrailingZeros64(mismatch))
		}
		return nil
	}
	for b := 0; b < n; b++ {
		want := ref(assignment(scratch, words, b))
		if len(got) != len(want) {
			return witness(b)
		}
		for o := range want {
			if want[o] != (got[o]>>uint(b)&1 == 1) {
				return witness(b)
			}
		}
	}
	return nil
}
