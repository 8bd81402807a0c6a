package partition_test

import (
	"fmt"
	"strings"
	"testing"

	"compact/internal/partition"
	"compact/internal/xbar"
)

// TestPlanEval64MatchesScalar drives the word-parallel cascade evaluator
// with the exhaustive basis words and checks every bit against the scalar
// Eval — the cascade-level analogue of xbar's FuzzEval64VsScalar.
func TestPlanEval64MatchesScalar(t *testing.T) {
	nw := chainNet(t, 9)
	plan := buildPlan(t, nw, 7, 7)
	n := nw.NumInputs()
	total := 1 << uint(n)
	words := make([]uint64, n)
	in := make([]bool, n)
	for base := 0; base < total; base += 64 {
		for i := 0; i < n; i++ {
			switch {
			case i < 6:
				words[i] = [6]uint64{
					0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
					0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
				}[i]
			case base&(1<<uint(i)) != 0:
				words[i] = ^uint64(0)
			default:
				words[i] = 0
			}
		}
		got64, err := plan.Eval64(words)
		if err != nil {
			t.Fatalf("Eval64(base=%d): %v", base, err)
		}
		cnt := total - base
		if cnt > 64 {
			cnt = 64
		}
		for b := 0; b < cnt; b++ {
			for i := range in {
				in[i] = (base+b)&(1<<uint(i)) != 0
			}
			want, err := plan.Eval(in)
			if err != nil {
				t.Fatalf("Eval(%v): %v", in, err)
			}
			for o := range want {
				if want[o] != (got64[o]>>uint(b)&1 == 1) {
					t.Fatalf("assignment %d output %d: scalar %v, word %v",
						base+b, o, want[o], got64[o]>>uint(b)&1 == 1)
				}
			}
		}
	}
}

// TestPlanVerify64AgreesWithVerify runs both verification paths on a
// correct plan and on a deliberately wrong reference, checking the pass /
// fail outcomes and the reported witness output agree.
func TestPlanVerify64AgreesWithVerify(t *testing.T) {
	nw := chainNet(t, 9)
	plan := buildPlan(t, nw, 7, 7)
	if err := plan.Verify(nw.Eval, 14, 0, 1); err != nil {
		t.Fatalf("scalar Verify on a correct plan: %v", err)
	}
	if err := plan.Verify64(nw.Eval64, 14, 0, 1); err != nil {
		t.Fatalf("Verify64 on a correct plan: %v", err)
	}
	// Corrupt the reference: flip output 0 everywhere.
	badRef := func(in []bool) []bool {
		out := nw.Eval(in)
		out[0] = !out[0]
		return out
	}
	badRef64 := func(words []uint64) []uint64 {
		out := nw.Eval64(words)
		out[0] = ^out[0]
		return out
	}
	errScalar := plan.Verify(badRef, 14, 0, 1)
	err64 := plan.Verify64(badRef64, 14, 0, 1)
	if errScalar == nil || err64 == nil {
		t.Fatalf("corrupted reference not detected: scalar %v, word %v", errScalar, err64)
	}
	if errScalar.Error() != err64.Error() {
		t.Fatalf("witness mismatch:\n  scalar: %v\n  word:   %v", errScalar, err64)
	}
	// Sampled mode must agree on the witness too.
	errScalar = plan.Verify(badRef, 0, 300, 7)
	err64 = plan.Verify64(badRef64, 0, 300, 7)
	if errScalar == nil || err64 == nil || errScalar.Error() != err64.Error() {
		t.Fatalf("sampled witness mismatch:\n  scalar: %v\n  word:   %v", errScalar, err64)
	}
}

// wideIdentityPlan hand-builds a single-tile plan with n primary inputs
// whose only output is input 0 passed through a two-cell crossbar: wide
// enough to provoke the 1<<n overflow without synthesizing a huge design.
func wideIdentityPlan(t *testing.T, n int) *partition.Plan {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
	}
	d, err := xbar.NewDesign([]int{2, 1}, []xbar.Device{
		{Row: 0, Col: 0, E: xbar.Entry{Kind: xbar.Lit, Var: 0}}, // col 0 -> output row, gated by x0
		{Row: 1, Col: 0, E: xbar.Entry{Kind: xbar.On}},          // input row -> col 0
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Input = xbar.WireRef{Index: 1}
	d.Outputs = []xbar.WireRef{{Index: 0}}
	d.OutputNames = []string{"y"}
	d.VarNames = append([]string(nil), names...)
	plan := &partition.Plan{
		Name:    "wide",
		Inputs:  names,
		Outputs: []partition.OutputRef{{Name: "y", Net: "t0.y"}},
		Tiles: []partition.Tile{{
			Name:    "t0",
			Inputs:  append([]string(nil), names...),
			Outputs: []string{"t0.y"},
			Design:  d,
		}},
	}
	if err := plan.Validate(); err != nil {
		t.Fatalf("hand-built plan invalid: %v", err)
	}
	return plan
}

// TestPlanVerifyOverflowClamp pins the 1<<n overflow fix: a plan whose
// input count exceeds MaxExhaustiveBits must fall back to sampling (and
// actually sample — the pre-fix loop bound overflowed to a non-positive
// count for n >= 63, passing vacuously) rather than enumerate 2^n.
func TestPlanVerifyOverflowClamp(t *testing.T) {
	const n = 70
	plan := wideIdentityPlan(t, n)
	calls := 0
	wrongRef := func(in []bool) []bool {
		calls++
		return []bool{!in[0]}
	}
	// exhaustiveLimit 100 > 70 inputs: pre-fix this attempted 1<<70.
	err := plan.Verify(wrongRef, 100, 0, 1)
	if err == nil {
		t.Fatal("clamped Verify passed vacuously against an always-wrong reference")
	}
	if calls == 0 {
		t.Fatal("clamped Verify never called the reference")
	}
	if !strings.Contains(err.Error(), "disagrees") {
		t.Fatalf("unexpected error: %v", err)
	}
	if err := plan.Verify64(func(w []uint64) []uint64 {
		return []uint64{^w[0]}
	}, 100, 0, 1); err == nil {
		t.Fatal("clamped Verify64 passed vacuously against an always-wrong reference")
	}
	// And the correct reference still verifies under the clamp.
	if err := plan.Verify(func(in []bool) []bool { return []bool{in[0]} }, 100, 256, 1); err != nil {
		t.Fatalf("clamped Verify on a correct plan: %v", err)
	}
	if err := plan.Verify64(func(w []uint64) []uint64 { return []uint64{w[0]} }, 100, 256, 1); err != nil {
		t.Fatalf("clamped Verify64 on a correct plan: %v", err)
	}
}
