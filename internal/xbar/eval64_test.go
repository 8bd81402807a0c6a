package xbar

import (
	"encoding/json"
	"math/rand"
	"testing"
)

// randomDesign builds an in-memory design with a mix of Off/On/Lit cells.
func randomDesign(rng *rand.Rand, rows, cols, nVars int) *Design {
	d := testDesign(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			switch rng.Intn(6) {
			case 0:
				setCell(&d.Planes[0], r, c, Entry{Kind: On})
			case 1, 2:
				setCell(&d.Planes[0], r, c, Entry{Kind: Lit, Var: int32(rng.Intn(nVars)), Neg: rng.Intn(2) == 0})
			}
		}
	}
	d.Input = WireRef{Index: rng.Intn(rows)}
	nOut := 1 + rng.Intn(3)
	for i := 0; i < nOut; i++ {
		d.Outputs = append(d.Outputs, WireRef{Index: rng.Intn(rows)})
	}
	return d
}

// TestEval64MatchesScalar is the in-process differential property: on
// random designs and random assignment words, Eval64Checked must agree
// bit-for-bit with 64 scalar EvalChecked calls.
func TestEval64MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		nVars := 1 + rng.Intn(6)
		d := randomDesign(rng, 2+rng.Intn(6), 1+rng.Intn(6), nVars)
		words := make([]uint64, nVars)
		for i := range words {
			words[i] = rng.Uint64()
		}
		got, err := d.Eval64Checked(words)
		if err != nil {
			t.Fatalf("trial %d: Eval64Checked: %v", trial, err)
		}
		in := make([]bool, nVars)
		for b := 0; b < 64; b++ {
			for i := range in {
				in[i] = words[i]>>uint(b)&1 == 1
			}
			want, err := d.EvalChecked(in)
			if err != nil {
				t.Fatalf("trial %d: EvalChecked: %v", trial, err)
			}
			for o := range want {
				if want[o] != (got[o]>>uint(b)&1 == 1) {
					t.Fatalf("trial %d: output %d assignment bit %d: scalar %v, word %v",
						trial, o, b, want[o], got[o]>>uint(b)&1 == 1)
				}
			}
		}
	}
}

// scalarVerify is the pre-word-parallel VerifyAgainst, kept verbatim as the
// reference oracle for witness-order parity tests.
func scalarVerify(d *Design, ref func([]bool) []bool, nVars, exhaustiveLimit, samples int, seed uint64) []bool {
	check := func(in []bool) []bool {
		want := ref(in)
		got, err := d.EvalChecked(in)
		if err != nil || len(got) < len(want) {
			return append([]bool(nil), in...)
		}
		for o := range want {
			if want[o] != got[o] {
				return append([]bool(nil), in...)
			}
		}
		return nil
	}
	in := make([]bool, nVars)
	if nVars <= exhaustiveLimit {
		for a := 0; a < 1<<uint(nVars); a++ {
			for i := range in {
				in[i] = a&(1<<uint(i)) != 0
			}
			if bad := check(in); bad != nil {
				return bad
			}
		}
		return nil
	}
	state := seed | 1
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state
	}
	for s := 0; s < samples; s++ {
		for i := range in {
			in[i] = next()>>33&1 != 0
		}
		if bad := check(in); bad != nil {
			return bad
		}
	}
	return nil
}

func boolsEq(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestVerifyAgainstWitnessParity checks the word-parallel VerifyAgainst
// returns exactly the witness (or nil) the scalar implementation would, in
// both exhaustive and sampled modes, against references that disagree with
// the design in various places.
func TestVerifyAgainstWitnessParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		nVars := 1 + rng.Intn(8)
		d := randomDesign(rng, 2+rng.Intn(5), 1+rng.Intn(5), nVars)
		// Reference: the design itself, with outputs flipped on a random
		// subset of assignments (possibly empty → verification passes).
		flipMask := rng.Uint64()
		ref := func(in []bool) []bool {
			out, err := d.EvalChecked(in)
			if err != nil {
				t.Fatalf("ref eval: %v", err)
			}
			key := uint64(0)
			for i, v := range in {
				if v {
					key |= 1 << uint(i%64)
				}
			}
			if flipMask&(1<<(key%64)) != 0 {
				for o := range out {
					out[o] = !out[o]
				}
			}
			return out
		}
		for _, mode := range []struct {
			limit, samples int
		}{{nVars, 0}, {nVars - 1, 100}} {
			want := scalarVerify(d, ref, nVars, mode.limit, mode.samples, 9)
			got := d.VerifyAgainst(ref, nVars, mode.limit, mode.samples, 9)
			if (want == nil) != (got == nil) || (want != nil && !boolsEq(want, got)) {
				t.Fatalf("trial %d limit=%d samples=%d: scalar witness %v, word witness %v",
					trial, mode.limit, mode.samples, want, got)
			}
		}
	}
}

// TestVerifyAgainst64MatchesScalarRef checks the fully word-parallel
// variant against a word-level reference built from the scalar one.
func TestVerifyAgainst64MatchesScalarRef(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		nVars := 1 + rng.Intn(7)
		d := randomDesign(rng, 2+rng.Intn(5), 1+rng.Intn(5), nVars)
		ref := func(in []bool) []bool {
			out, err := d.EvalChecked(in)
			if err != nil {
				t.Fatalf("ref eval: %v", err)
			}
			return out
		}
		ref64 := func(words []uint64) []uint64 {
			out := make([]uint64, len(d.Outputs))
			in := make([]bool, nVars)
			for b := 0; b < 64; b++ {
				for i := range in {
					in[i] = words[i]>>uint(b)&1 == 1
				}
				for o, v := range ref(in) {
					if v {
						out[o] |= 1 << uint(b)
					}
				}
			}
			return out
		}
		if bad := d.VerifyAgainst64(ref64, nVars, nVars, 0, 1); bad != nil {
			t.Fatalf("trial %d: exhaustive self-verify found bogus witness %v", trial, bad)
		}
		if bad := d.VerifyAgainst64(ref64, nVars, nVars-1, 130, 1); bad != nil {
			t.Fatalf("trial %d: sampled self-verify found bogus witness %v", trial, bad)
		}
	}
}

// TestVerifyAgainstOverflowClamp is the regression for the 1<<nVars
// overflow: with nVars = 63 and an exhaustiveLimit that nominally allows
// exhaustive mode, the old implementation's loop bound overflowed to a
// negative int and the loop body never ran — a wrong design "verified".
// The clamp must fall back to sampling (with a non-zero default even when
// the caller asked for 0 samples) and find the mismatch.
func TestVerifyAgainstOverflowClamp(t *testing.T) {
	// Two disconnected rows: output row 0 never reaches input row 1, so the
	// design computes constant false; the reference says constant true.
	d := testDesign(2, 1)
	d.Input = WireRef{Index: 1}
	d.Outputs = rowRefs(0)
	ref := func(in []bool) []bool { return []bool{true} }
	for _, nVars := range []int{63, 64, 40} {
		if bad := d.VerifyAgainst(ref, nVars, 100, 0, 1); bad == nil {
			t.Fatalf("nVars=%d: constant-false design verified against constant-true reference", nVars)
		}
	}
	// Same clamp in the word-parallel variant.
	ref64 := func(words []uint64) []uint64 { return []uint64{^uint64(0)} }
	if bad := d.VerifyAgainst64(ref64, 63, 100, 0, 1); bad == nil {
		t.Fatalf("VerifyAgainst64 nVars=63: constant-false design verified against constant-true reference")
	}
}

// TestCorruptedCellsFailLoudly is the regression for Conducts silently
// treating corrupted entries as non-conducting: a Lit cell with a negative
// variable index or an unknown Kind must make the checked evaluators
// return an *invariant.Error, and VerifyAgainst must report a witness
// rather than verifying the design.
func TestCorruptedCellsFailLoudly(t *testing.T) {
	mk := func(e Entry) *Design {
		d := testDesign(2, 1)
		d.Input = WireRef{Index: 1}
		d.Outputs = rowRefs(0)
		setCell(&d.Planes[0], 0, 0, e)
		return d
	}
	for name, e := range map[string]Entry{
		"negative-var": {Kind: Lit, Var: -3},
		"unknown-kind": {Kind: EntryKind(7)},
	} {
		d := mk(e)
		if _, err := d.EvalChecked([]bool{true}); err == nil {
			t.Errorf("%s: EvalChecked accepted a corrupted design", name)
		}
		if _, err := d.Eval64Checked([]uint64{0}); err == nil {
			t.Errorf("%s: Eval64Checked accepted a corrupted design", name)
		}
		ref := func(in []bool) []bool { return []bool{false} }
		if bad := d.VerifyAgainst(ref, 1, 4, 0, 1); bad == nil {
			t.Errorf("%s: VerifyAgainst verified a corrupted design", name)
		}
	}
}

// FuzzEval64VsScalar is the differential fuzz target: any design the wire
// decoder accepts must evaluate identically under the scalar union-find
// oracle and the word-parallel bitset closure, on seeded pseudo-random
// assignment words.
func FuzzEval64VsScalar(f *testing.F) {
	f.Add([]byte(`{"v":1,"rows":2,"cols":2,"input_row":1,"output_rows":[0],"cells":[{"r":0,"c":0,"k":"lit","var":0},{"r":1,"c":0,"k":"on"}]}`), uint64(1))
	f.Add([]byte(`{"v":1,"rows":3,"cols":2,"input_row":2,"output_rows":[0,0],"var_names":["a","b"],"cells":[{"r":0,"c":1,"k":"lit","var":0,"neg":true},{"r":1,"c":1,"k":"lit","var":1},{"r":2,"c":0,"k":"on"},{"r":1,"c":0,"k":"on"}]}`), uint64(99))
	f.Add([]byte(`{"v":1,"rows":1,"cols":1,"input_row":0,"output_rows":[0],"cells":[{"r":0,"c":0,"k":"lit","var":1000}]}`), uint64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		var d Design
		if err := json.Unmarshal(data, &d); err != nil {
			return
		}
		nVars := d.NumVars()
		if nVars > 1<<16 {
			return // decoder-accepted but absurd; words allocation only
		}
		state := seed | 1
		words := make([]uint64, nVars)
		for i := range words {
			state = state*6364136223846793005 + 1442695040888963407
			words[i] = state
		}
		got, err64 := d.Eval64Checked(words)
		in := make([]bool, nVars)
		for b := 0; b < 64; b++ {
			for i := range in {
				in[i] = words[i]>>uint(b)&1 == 1
			}
			want, err := d.EvalChecked(in)
			if (err == nil) != (err64 == nil) {
				t.Fatalf("checked-eval error disagreement: scalar %v, word %v", err, err64)
			}
			if err != nil {
				return
			}
			for o := range want {
				if want[o] != (got[o]>>uint(b)&1 == 1) {
					t.Fatalf("output %d bit %d: scalar %v, word %v", o, b, want[o], got[o])
				}
			}
		}
	})
}

// benchDesign builds a deterministic dense-ish design for the verification
// benchmarks: big enough that the closure dominates, small enough that an
// exhaustive sweep over 2^14 assignments stays meaningful.
func benchDesign() (*Design, int) {
	rng := rand.New(rand.NewSource(1))
	nVars := 14
	d := randomDesign(rng, 24, 24, nVars)
	return d, nVars
}

// BenchmarkVerifyExhaustiveScalar measures the pre-word baseline: one
// scalar union-find evaluation per assignment (the reference oracle).
func BenchmarkVerifyExhaustiveScalar(b *testing.B) {
	d, nVars := benchDesign()
	ref := func(in []bool) []bool { out, _ := d.EvalChecked(in); return out }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bad := scalarVerify(d, ref, nVars, nVars, 0, 1); bad != nil {
			b.Fatalf("self-verify failed: %v", bad)
		}
	}
}

// BenchmarkVerifyExhaustiveWord64 measures the word-parallel path doing
// the same 2^14-assignment sweep 64 assignments per closure. The reference
// side is word-parallel too (the design itself), isolating the kernel.
func BenchmarkVerifyExhaustiveWord64(b *testing.B) {
	d, nVars := benchDesign()
	ref64 := func(words []uint64) []uint64 { out, _ := d.Eval64Checked(words); return out }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bad := d.VerifyAgainst64(ref64, nVars, nVars, 0, 1); bad != nil {
			b.Fatalf("self-verify failed: %v", bad)
		}
	}
}

// TestVerifySampledAllocations bounds what a sampled verify allocates: its
// word and scratch buffers, whatever the sample count — a witness only on
// a mismatch, never one assignment per sample. A mapped design verified
// through VerifyAgainst64 allocates its evaluator's scratch once per
// verify, not once per 64-sample batch.
func TestVerifySampledAllocations(t *testing.T) {
	const nVars = 10
	out := []uint64{0}
	eval := func([]uint64) ([]uint64, error) { return out, nil }
	ref64 := func([]uint64) []uint64 { return out }
	want := []bool{false}
	ref := func([]bool) []bool { return want }
	d, _, designVars := synthDesign(t, 1)
	refEval := d.Wires().NewEvaluator()
	designRef := func(words []uint64) []uint64 { out, _ := refEval.Eval64(words); return out }
	var design [2]float64
	for k, samples := range []int{64, 4096} {
		word := testing.AllocsPerRun(5, func() {
			if bad := VerifyEquiv(eval, nil, ref64, nVars, 0, samples, 1); bad != nil {
				t.Fatalf("bogus witness %v", bad)
			}
		})
		scalar := testing.AllocsPerRun(5, func() {
			if bad := VerifyEquiv(eval, ref, nil, nVars, 0, samples, 1); bad != nil {
				t.Fatalf("bogus witness %v", bad)
			}
		})
		if word > 4 || scalar > 4 {
			t.Errorf("samples=%d: %v allocations with a word reference, %v with a scalar one", samples, word, scalar)
		}
		design[k] = testing.AllocsPerRun(5, func() {
			if bad := d.VerifyAgainst64(designRef, designVars, 0, samples, 1); bad != nil {
				t.Fatalf("design disagrees with itself on %v", bad)
			}
		})
	}
	if design[0] != design[1] {
		t.Errorf("VerifyAgainst64 on a mapped design: %v allocations at 64 samples, %v at 4096", design[0], design[1])
	}
}
