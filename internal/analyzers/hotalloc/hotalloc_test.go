package hotalloc_test

import (
	"path/filepath"
	"strings"
	"testing"

	"coolpim/internal/analyzers"
	"coolpim/internal/analyzers/analysis"
	"coolpim/internal/analyzers/analysistest"
	"coolpim/internal/analyzers/driver"
	"coolpim/internal/analyzers/facts"
	"coolpim/internal/analyzers/hotalloc"
	"coolpim/internal/analyzers/load"
)

func suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{hotalloc.Analyzer}
}

func TestHotalloc(t *testing.T) {
	analysistest.Run(t, "hottest", "coolpim/internal/hottest", suite(), analyzers.Names())
}

// TestOutOfScope proves the analyzer is silent outside
// coolpim/internal/...: the same fixture under a cmd-style import path
// produces no diagnostics and requires no want annotations.
func TestOutOfScope(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "hotbase"))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := load.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	loader.Overlay("coolpim/cmd/hotbase", dir)
	p, err := loader.Load("coolpim/cmd/hotbase")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := driver.Run(loader.Fset, p, suite(), analyzers.Names(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("out-of-scope package produced findings: %v", findings)
	}
}

// newDepLoader overlays both fact-propagation fixture packages.
func newDepLoader(t *testing.T) *load.Loader {
	t.Helper()
	baseDir, err := filepath.Abs(filepath.Join("testdata", "src", "hotbase"))
	if err != nil {
		t.Fatal(err)
	}
	depDir, err := filepath.Abs(filepath.Join("testdata", "src", "hotdep"))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := load.NewLoader(baseDir)
	if err != nil {
		t.Fatal(err)
	}
	loader.Overlay("coolpim/internal/hotbase", baseDir)
	loader.Overlay("coolpim/internal/hotdep", depDir)
	return loader
}

func runPkg(t *testing.T, loader *load.Loader, importPath string, store *facts.Store) []driver.Finding {
	t.Helper()
	p, err := loader.Load(importPath)
	if err != nil {
		t.Fatalf("load %s: %v", importPath, err)
	}
	findings, err := driver.Run(loader.Fset, p, suite(), analyzers.Names(), store)
	if err != nil {
		t.Fatalf("driver %s: %v", importPath, err)
	}
	return findings
}

// TestFactPropagation analyzes hotbase then hotdep through a shared fact
// store: the dependent package's hot function sees hotbase.Alloc's dirty
// fact (one diagnostic) and hotbase.Clean / (*Gauge).Add's clean facts
// (no diagnostics).
func TestFactPropagation(t *testing.T) {
	loader := newDepLoader(t)
	store := facts.NewStore()

	if findings := runPkg(t, loader, "coolpim/internal/hotbase", store); len(findings) != 0 {
		t.Errorf("hotbase (no roots) produced findings: %v", findings)
	}
	depFindings := runPkg(t, loader, "coolpim/internal/hotdep", store)
	if len(depFindings) != 1 {
		t.Fatalf("hotdep findings = %v, want exactly one (the Alloc call)", depFindings)
	}
	msg := depFindings[0].Message
	if !strings.Contains(msg, "calls coolpim/internal/hotbase.Alloc which allocates") ||
		!strings.Contains(msg, "make allocates at hotbase.go:") {
		t.Errorf("Alloc diagnostic = %q, want dirty-fact message carrying the root cause", msg)
	}
}

// TestMissingFactDiagnosed: without hotbase's facts in the store, every
// cross-package call from the hot function is itself a diagnostic — an
// unvetted dependency cannot silently pass.
func TestMissingFactDiagnosed(t *testing.T) {
	loader := newDepLoader(t)
	findings := runPkg(t, loader, "coolpim/internal/hotdep", facts.NewStore())
	if len(findings) != 3 {
		t.Fatalf("hotdep without base facts: findings = %v, want 3 missing-fact diagnostics", findings)
	}
	for _, f := range findings {
		if !strings.Contains(f.Message, "has no hotalloc fact") {
			t.Errorf("finding %q, want missing-fact message", f.Message)
		}
	}
}
