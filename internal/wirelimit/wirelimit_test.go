package wirelimit

import (
	"errors"
	"math"
	"testing"
)

func TestCheckDim(t *testing.T) {
	for _, n := range []int{0, 1, MaxDim} {
		if err := CheckDim("rows", n); err != nil {
			t.Errorf("CheckDim(%d): unexpected error %v", n, err)
		}
	}
	for _, n := range []int{-1, MaxDim + 1, min(1<<40, math.MaxInt)} {
		err := CheckDim("rows", n)
		if err == nil {
			t.Fatalf("CheckDim(%d): want error", n)
		}
		var le *LimitError
		if !errors.As(err, &le) {
			t.Fatalf("CheckDim(%d): want *LimitError, got %T", n, err)
		}
		if le.Got != n || le.Max != MaxDim || le.What != "rows" {
			t.Errorf("CheckDim(%d): bad fields %+v", n, le)
		}
	}
}

func TestCheckCount(t *testing.T) {
	if err := CheckCount("inputs", 10, 10); err != nil {
		t.Errorf("at cap: %v", err)
	}
	if err := CheckCount("inputs", 11, 10); err == nil {
		t.Error("above cap: want error")
	}
	// Non-positive cap falls back to MaxCount.
	if err := CheckCount("inputs", MaxCount, 0); err != nil {
		t.Errorf("default cap at MaxCount: %v", err)
	}
	if err := CheckCount("inputs", MaxCount+1, 0); err == nil {
		t.Error("default cap above MaxCount: want error")
	}
}

func TestCheckCells(t *testing.T) {
	if err := CheckCells("design", 256, 256, 1<<16); err != nil {
		t.Errorf("256x256 within 2^16 cells: %v", err)
	}
	if err := CheckCells("design", 257, 256, 1<<16); err == nil {
		t.Error("257x256 beyond 2^16 cells: want error")
	}
	// The historical xbar hole: a huge row count with zero columns passes a
	// product-only guard but must fail the per-dimension cap.
	if err := CheckCells("design", min(1<<40, math.MaxInt), 0, min(1<<31, math.MaxInt)); err == nil {
		t.Error("2^40 x 0: want per-dimension error")
	}
	if err := CheckCells("design", -1, 4, 0); err == nil {
		t.Error("negative rows: want error")
	}
	// Default cap: full MaxDim x MaxDim is allowed wherever an int can
	// count its cells (64-bit targets).
	err := CheckCells("design", MaxDim, MaxDim, 0)
	if fits := MaxDim*MaxDim <= math.MaxInt; (err == nil) != fits {
		t.Errorf("MaxDim x MaxDim under default cap (fits an int: %v): %v", fits, err)
	}
}

func TestCheckPerm(t *testing.T) {
	if err := CheckPerm("var_order", nil); err != nil {
		t.Errorf("nil perm: %v", err)
	}
	if err := CheckPerm("var_order", []int{2, 0, 1}); err != nil {
		t.Errorf("valid perm: %v", err)
	}
	if err := CheckPerm("var_order", []int{0, -3}); err == nil {
		t.Error("negative entry: want error")
	}
	if err := CheckPerm("var_order", []int{MaxDim + 1}); err == nil {
		t.Error("oversized entry: want error")
	}
	var le *LimitError
	err := CheckPerm("var_order", []int{0, 1, 1 << 30})
	if !errors.As(err, &le) {
		t.Fatalf("want *LimitError, got %v", err)
	}
	if le.What != "var_order entry 2" {
		t.Errorf("What = %q, want entry index in message", le.What)
	}
}

func TestLimitErrorMessages(t *testing.T) {
	if got := (&LimitError{What: "rows", Got: -2, Max: 5}).Error(); got != "wirelimit: rows is negative (-2)" {
		t.Errorf("negative message: %q", got)
	}
	if got := (&LimitError{What: "rows", Got: 9, Max: 5}).Error(); got != "wirelimit: rows 9 exceeds the 5 cap" {
		t.Errorf("cap message: %q", got)
	}
}
