package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadAndRun type-checks the testdata package at testdata/<sub> under the
// given import path and applies the analyzers.
func loadAndRun(t *testing.T, sub, path string, analyzers ...*Analyzer) []Diagnostic {
	t.Helper()
	prog, err := LoadDir(filepath.Join("testdata", sub), path)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", sub, err)
	}
	return RunAnalyzers(prog, analyzers)
}

// wantSet scans every .go file in dir for trailing "// want <analyzer>"
// markers and returns the expected findings as "file:analyzer:line" keys.
func wantSet(t *testing.T, dir string) map[string]bool {
	t.Helper()
	want := make(map[string]bool)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			i := strings.Index(text, "// want ")
			if i < 0 {
				continue
			}
			for _, an := range strings.Fields(text[i+len("// want "):]) {
				want[fmt.Sprintf("%s:%s:%d", e.Name(), an, line)] = true
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// checkAgainstMarkers compares diagnostics to the // want markers in dir.
func checkAgainstMarkers(t *testing.T, sub string, diags []Diagnostic) {
	t.Helper()
	dir := filepath.Join("testdata", sub)
	want := wantSet(t, dir)
	got := make(map[string]bool)
	for _, d := range diags {
		got[fmt.Sprintf("%s:%s:%d", filepath.Base(d.Pos.Filename), d.Analyzer, d.Pos.Line)] = true
	}
	for k := range want {
		if !got[k] {
			t.Errorf("%s: missing expected finding %s", sub, k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("%s: unexpected finding %s", sub, k)
		}
	}
}

func TestFloatcmp(t *testing.T) {
	checkAgainstMarkers(t, "floatcmp/bad", loadAndRun(t, "floatcmp/bad", "floatbad", Floatcmp()))
	if diags := loadAndRun(t, "floatcmp/good", "floatgood", Floatcmp()); len(diags) != 0 {
		t.Errorf("floatcmp/good: want no findings, got %v", diags)
	}
}

func TestErrdrop(t *testing.T) {
	checkAgainstMarkers(t, "errdrop/bad", loadAndRun(t, "errdrop/bad", "errdropbad", Errdrop()))
	if diags := loadAndRun(t, "errdrop/good", "errdropgood", Errdrop()); len(diags) != 0 {
		t.Errorf("errdrop/good: want no findings, got %v", diags)
	}
}

func TestMutableglobal(t *testing.T) {
	checkAgainstMarkers(t, "mutableglobal/bad", loadAndRun(t, "mutableglobal/bad", "mutbad", Mutableglobal()))
	if diags := loadAndRun(t, "mutableglobal/good", "mutgood", Mutableglobal()); len(diags) != 0 {
		t.Errorf("mutableglobal/good: want no findings, got %v", diags)
	}
}

func TestCtxbound(t *testing.T) {
	checkAgainstMarkers(t, "ctxbound/bad", loadAndRun(t, "ctxbound/bad", "ctxbad", Ctxbound([]string{"ctxbad"})))
	if diags := loadAndRun(t, "ctxbound/good", "ctxgood", Ctxbound([]string{"ctxgood"})); len(diags) != 0 {
		t.Errorf("ctxbound/good: want no findings, got %v", diags)
	}
	// Out-of-scope packages are never flagged, whatever their signatures.
	if diags := loadAndRun(t, "ctxbound/bad", "ctxbad", Ctxbound([]string{"some/other/pkg"})); len(diags) != 0 {
		t.Errorf("ctxbound out of scope: want no findings, got %v", diags)
	}
}

func TestPanicfree(t *testing.T) {
	checkAgainstMarkers(t, "panicfree/bad", loadAndRun(t, "panicfree/bad", "panicbad", Panicfree("panicbad")))
	if diags := loadAndRun(t, "panicfree/good", "panicgood", Panicfree("panicgood")); len(diags) != 0 {
		t.Errorf("panicfree/good: want no findings, got %v", diags)
	}
}

func TestPanicfreeChainMentionsRoot(t *testing.T) {
	diags := loadAndRun(t, "panicfree/bad", "panicbad", Panicfree("panicbad"))
	var chain string
	for _, d := range diags {
		if strings.Contains(d.Message, "deeper") || strings.Contains(d.Message, "via ") {
			chain = d.Message
			break
		}
	}
	if !strings.Contains(chain, "panicbad.Do") {
		t.Errorf("panic report should name the API root in its call chain, got %q", chain)
	}
}

func TestMalformedDirective(t *testing.T) {
	diags := loadAndRun(t, "directive", "directive", Floatcmp())
	var sawMalformed, sawFloatcmp bool
	for _, d := range diags {
		switch d.Analyzer {
		case "lintdirective":
			sawMalformed = true
		case "floatcmp":
			sawFloatcmp = true
		}
	}
	if !sawMalformed {
		t.Errorf("malformed //lint:ignore (no reason) was not reported: %v", diags)
	}
	if !sawFloatcmp {
		t.Errorf("malformed directive must not suppress the underlying finding: %v", diags)
	}
}

// TestLoadHonorsBuildConstraints pins that the loader type-checks only
// the files the build compiles on this platform: a file and its excluded
// twin declare the same names, which is no redeclaration.
func TestLoadHonorsBuildConstraints(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"a.go":       "package p\n\nconst x = 1\n",
		"b.go":       "//go:build compactlint_never\n\npackage p\n\nconst x = 2\n",
		"c_plan9.go": "package p\n\nconst x = 3\n",
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	prog, err := LoadDir(dir, "p")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if n := len(prog.Pkgs[0].Files); n != 1 {
		t.Errorf("loaded %d files, want only a.go", n)
	}
}

func TestDefaultAnalyzers(t *testing.T) {
	as := DefaultAnalyzers("compact")
	names := make(map[string]bool)
	for _, a := range as {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer with empty name or doc: %+v", a)
		}
		if (a.Run == nil) == (a.RunProgram == nil) {
			t.Errorf("%s: exactly one of Run/RunProgram must be set", a.Name)
		}
		names[a.Name] = true
	}
	for _, want := range []string{"floatcmp", "panicfree", "errdrop", "mutableglobal", "ctxbound"} {
		if !names[want] {
			t.Errorf("DefaultAnalyzers missing %q", want)
		}
	}
}
