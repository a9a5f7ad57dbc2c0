package allow_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"coolpim/internal/analyzers"
	"coolpim/internal/analyzers/allow"
	"coolpim/internal/analyzers/analysis"
	"coolpim/internal/analyzers/analysistest"
	"coolpim/internal/analyzers/determinism"
	"coolpim/internal/analyzers/driver"
	"coolpim/internal/analyzers/load"
)

// TestDirectiveScope proves the suppression contract end to end against
// the determinism analyzer: a directive silences exactly one line for
// exactly the named analyzer, a standalone directive targets the next
// line, a directive naming the wrong analyzer suppresses nothing, and an
// unknown analyzer name is itself diagnosed.
func TestDirectiveScope(t *testing.T) {
	findings := analysistest.Run(t, "allowtest", "coolpim/internal/allowtest",
		[]*analysis.Analyzer{determinism.Analyzer}, analyzers.Names())
	for _, f := range findings {
		if f.Analyzer == allow.CheckerName && !strings.Contains(f.Message, "nosuchchecker") {
			t.Errorf("unexpected allowlist finding: %s", f)
		}
	}
}

// TestStaleDirective proves the stale-directive audit end to end: in
// the staletest fixture one directive suppresses a live determinism
// diagnostic (silent) and one excuses a line that no longer violates
// anything (reported, via the fixture's want annotation).
func TestStaleDirective(t *testing.T) {
	analysistest.Run(t, "staletest", "coolpim/internal/staletest",
		[]*analysis.Analyzer{determinism.Analyzer}, analyzers.Names())
}

const collectSrc = `package p

import "time"

func f() time.Time {
	t := time.Now() //coolpim:allow determinism trailing form
	//coolpim:allow unitsafety standalone form
	_ = t
	//coolpim:allow
	return t
}
`

func parseCollectSrc(t *testing.T) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", collectSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

// TestCollect pins the parsing rules: a trailing directive targets its
// own line, a standalone one the next line, and a bare directive parses
// with an empty analyzer name.
func TestCollect(t *testing.T) {
	fset, f := parseCollectSrc(t)
	ds := allow.Collect(fset, []*ast.File{f})
	if len(ds) != 3 {
		t.Fatalf("Collect returned %d directives, want 3: %+v", len(ds), ds)
	}
	checks := []struct {
		name   string
		target int
	}{
		{"determinism", 6}, // trailing: suppresses its own line
		{"unitsafety", 8},  // standalone: suppresses the next line
		{"", 10},           // bare directive, no analyzer named
	}
	for i, want := range checks {
		if ds[i].Name != want.name || ds[i].Target != want.target {
			t.Errorf("directive %d = name %q target %d, want name %q target %d",
				i, ds[i].Name, ds[i].Target, want.name, want.target)
		}
	}
	if !ds[0].Suppresses("determinism", token.Position{Filename: "p.go", Line: 6}) {
		t.Error("trailing directive should suppress determinism on its own line")
	}
	if ds[0].Suppresses("determinism", token.Position{Filename: "p.go", Line: 7}) {
		t.Error("trailing directive must not leak onto the next line")
	}
	if ds[0].Suppresses("unitsafety", token.Position{Filename: "p.go", Line: 6}) {
		t.Error("directive must not suppress analyzers it does not name")
	}
}

// TestMissingNameDiagnosed runs the driver with no analyzers: the bare
// directive alone must yield an allowlist finding, and the well-formed
// ones must not.
func TestMissingNameDiagnosed(t *testing.T) {
	fset, f := parseCollectSrc(t)
	findings, err := driver.Run(fset, &load.Package{Files: []*ast.File{f}}, nil, analyzers.Names(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	got := findings[0]
	if got.Analyzer != allow.CheckerName || !strings.Contains(got.Message, "names no analyzer") {
		t.Errorf("unexpected finding: %s", got)
	}
	if got.Pos.Line != 9 {
		t.Errorf("finding at line %d, want 9 (the directive comment itself)", got.Pos.Line)
	}
}
