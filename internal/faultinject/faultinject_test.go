package faultinject

import (
	"context"
	"errors"
	"testing"
)

func TestDisabledByDefault(t *testing.T) {
	t.Setenv(EnvVar, "")
	if _, ok := Mode(StageBDD); ok {
		t.Fatal("injection enabled with empty spec")
	}
	if err := Err(StageBDD); err != nil {
		t.Fatalf("Err = %v with empty spec", err)
	}
}

func TestSpecParsing(t *testing.T) {
	t.Setenv(EnvVar, " parse , labeling=infeasible,server=unavailable,place=corrupt")
	for _, tc := range []struct {
		stage, mode string
		on          bool
	}{
		{StageParse, "fail", true},
		{StageLabeling, "infeasible", true},
		{StageServer, "unavailable", true},
		{StagePlace, "corrupt", true},
		{StageBDD, "", false},
		{StageMap, "", false},
	} {
		mode, ok := Mode(tc.stage)
		if ok != tc.on || mode != tc.mode {
			t.Errorf("Mode(%s) = %q,%v want %q,%v", tc.stage, mode, ok, tc.mode, tc.on)
		}
	}
}

func TestGenericErrors(t *testing.T) {
	t.Setenv(EnvVar, "bdd,xbar=timeout,labeling=infeasible")
	if err := Err(StageBDD); !errors.Is(err, ErrInjected) {
		t.Fatalf("fail mode: %v", err)
	}
	err := Err(StageMap)
	if !errors.Is(err, ErrInjected) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout mode: %v", err)
	}
	// Site-specific modes produce no generic error; the site handles them.
	if err := Err(StageLabeling); err != nil {
		t.Fatalf("site-specific mode leaked a generic error: %v", err)
	}
}

func TestMalformedEntriesIgnored(t *testing.T) {
	t.Setenv(EnvVar, ",,=fail, bdd=")
	if _, ok := Mode(StageParse); ok {
		t.Fatal("empty entry matched a stage")
	}
	// "bdd=" (empty mode) falls back to the default fail mode.
	if mode, ok := Mode(StageBDD); !ok || mode != "fail" {
		t.Fatalf("Mode(bdd) = %q,%v", mode, ok)
	}
}

func TestBudgetExpiresAfterItsChecks(t *testing.T) {
	if err := Budget(0).Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Budget(0).Err() = %v, want dead on entry", err)
	}
	ctx := Budget(3)
	child, cancel := context.WithCancel(ctx)
	defer cancel()
	for i := 1; i <= 2; i++ {
		if err := ctx.Err(); err != nil {
			t.Fatalf("check %d: %v, want live", i, err)
		}
		select {
		case <-ctx.Done():
			t.Fatalf("Done closed after check %d of 3", i)
		default:
		}
	}
	if _, ok := child.Deadline(); ok { // the third check, through the child
		t.Fatal("a budget has no clock deadline")
	}
	<-ctx.Done()
	<-child.Done()
	if err := ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("check 4: %v, want context.DeadlineExceeded", err)
	}
}
