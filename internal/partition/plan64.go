package partition

import (
	"fmt"

	"compact/internal/xbar"
)

// Word-parallel cascade evaluation: the multi-crossbar analogue of
// xbar.Design.Eval64. Nets carry one uint64 each — bit b is the net's
// value under assignment b — so one pass through the cascade simulates 64
// input vectors, and Verify64 checks the whole plan at word rate on both
// the cascade and the reference side.

// Eval64 simulates the cascade on 64 input vectors at once. inputs[i] is
// the 64-assignment value word of primary input i (bit b = input i under
// assignment b); the result holds one word per primary output. Tile
// evaluation is checked (Eval64Checked), so wire-decoded plans cannot
// panic on malformed designs.
func (p *Plan) Eval64(inputs []uint64) ([]uint64, error) {
	if len(inputs) != len(p.Inputs) {
		return nil, fmt.Errorf("partition: Eval64 got %d inputs, want %d", len(inputs), len(p.Inputs))
	}
	nets := make(map[string]uint64, len(p.Inputs)+2*len(p.Tiles))
	driven := make(map[string]bool, len(p.Inputs)+2*len(p.Tiles))
	for i, name := range p.Inputs {
		nets[name] = inputs[i]
		driven[name] = true
	}
	for ti := range p.Tiles {
		t := &p.Tiles[ti]
		words := make([]uint64, len(t.Inputs))
		for vi, net := range t.Inputs {
			if !driven[net] {
				return nil, fmt.Errorf("partition: tile %d (%s) reads undriven net %q", ti, t.Name, net)
			}
			words[vi] = nets[net]
		}
		outs, err := t.Design.Eval64Checked(words)
		if err != nil {
			return nil, fmt.Errorf("partition: tile %d (%s): %w", ti, t.Name, err)
		}
		for oi, net := range t.Outputs {
			nets[net] = outs[oi]
			driven[net] = true
		}
	}
	res := make([]uint64, len(p.Outputs))
	for i, o := range p.Outputs {
		if !driven[o.Net] {
			return nil, fmt.Errorf("partition: output %s reads undriven net %q", o.Name, o.Net)
		}
		res[i] = nets[o.Net]
	}
	return res, nil
}

// Verify64 is Verify with a word-parallel reference: ref64 receives one
// word per primary input and must return one word per reference output
// (logic.Network.Eval64 has exactly this shape), so the cascade and the
// reference both run 64 assignments per call. The enumeration discipline
// (exhaustive up to exhaustiveLimit clamped to xbar.MaxExhaustiveBits,
// seeded sampling otherwise) and the first-mismatch witness match Verify.
func (p *Plan) Verify64(ref64 func([]uint64) []uint64, exhaustiveLimit, samples int, seed uint64) error {
	return p.verify(nil, ref64, exhaustiveLimit, samples, seed)
}

// verify runs xbar.VerifyEquiv — the one enumeration and sampling
// driver — with the cascade's Eval64 as the evaluator, then explains its
// first mismatching assignment: the first disagreeing output, or the
// cascade's evaluation error.
func (p *Plan) verify(ref func([]bool) []bool, ref64 func([]uint64) []uint64, exhaustiveLimit, samples int, seed uint64) error {
	in := xbar.VerifyEquiv(p.Eval64, ref, ref64, len(p.Inputs), exhaustiveLimit, samples, seed)
	if in == nil {
		return nil
	}
	got, err := p.Eval(in)
	if err != nil {
		return fmt.Errorf("partition: cascade evaluation on %v: %w", in, err)
	}
	var want []bool
	if ref != nil {
		want = ref(in)
	} else {
		words := make([]uint64, len(in))
		for i, v := range in {
			if v {
				words[i] = 1
			}
		}
		for _, w := range ref64(words) {
			want = append(want, w&1 == 1)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("partition: cascade yields %d outputs, reference %d", len(got), len(want))
	}
	for o := range want {
		if got[o] != want[o] {
			return fmt.Errorf("partition: output %s disagrees with the reference on %v", p.Outputs[o].Name, in)
		}
	}
	return fmt.Errorf("partition: cascade disagrees with the reference on %v", in)
}
