// Package analysistest runs coolpim-vet analyzers over testdata packages
// and checks their diagnostics against // want annotations, mirroring
// golang.org/x/tools/go/analysis/analysistest on the standard library
// only.
//
// Each expectation is a trailing comment on the offending line holding
// one or more quoted regular expressions:
//
//	rand.Intn(4) // want `global math/rand`
//	a, b := f(), g() // want "first" "second"
//
// Every diagnostic must match a want on its line and every want must be
// matched by exactly one diagnostic; the //coolpim:allow suppression
// pass runs before matching, so testdata can also prove what a directive
// suppresses.
package analysistest

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"coolpim/internal/analyzers/analysis"
	"coolpim/internal/analyzers/driver"
	"coolpim/internal/analyzers/load"
)

// Run loads testdata/src/<pkg> (relative to the test's working
// directory) under the import path importAs, applies the analyzers, and
// reports mismatches against // want annotations. knownNames feeds the
// allow-directive validator; pass the full suite's names (plus the
// analyzers under test) unless the test targets directive validation
// itself. It returns the surviving findings for additional assertions.
func Run(t *testing.T, pkg, importAs string, analyzers []*analysis.Analyzer, knownNames []string) []driver.Finding {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", pkg))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := load.NewLoader(dir)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	loader.Overlay(importAs, dir)
	p, err := loader.Load(importAs)
	if err != nil {
		t.Fatalf("load %s: %v", pkg, err)
	}
	findings, err := driver.Run(loader.Fset, p, analyzers, knownNames, nil)
	if err != nil {
		t.Fatalf("driver: %v", err)
	}

	wants := collectWants(t, loader, p.Files)
	matched := make([]bool, len(wants))
	for _, f := range findings {
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != f.Pos.Filename || w.line != f.Pos.Line {
				continue
			}
			if w.rx.MatchString(f.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s:%d: %s (%s)",
				filepath.Base(f.Pos.Filename), f.Pos.Line, f.Message, f.Analyzer)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("no diagnostic matched want %q at %s:%d",
				w.rx, filepath.Base(w.file), w.line)
		}
	}
	return findings
}

type want struct {
	file string
	line int
	rx   *regexp.Regexp
}

func collectWants(t *testing.T, loader *load.Loader, files []*ast.File) []want {
	t.Helper()
	var wants []want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// Substring search rather than a prefix: an allowlist
				// directive comment can carry its own expectation, as in
				// `//coolpim:allow nosuch ... // want "unknown analyzer"`.
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				text := c.Text[idx+len("// want "):]
				pos := loader.Fset.Position(c.Pos())
				rxs, err := parseWant(text)
				if err != nil {
					t.Fatalf("%s:%d: %v", pos.Filename, pos.Line, err)
				}
				for _, rx := range rxs {
					wants = append(wants, want{file: pos.Filename, line: pos.Line, rx: rx})
				}
			}
		}
	}
	return wants
}

// parseWant tokenizes a want payload: whitespace-separated "..." or
// `...` regexp literals.
func parseWant(s string) ([]*regexp.Regexp, error) {
	var out []*regexp.Regexp
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			break
		}
		quote := s[0]
		if quote != '"' && quote != '`' {
			return nil, fmt.Errorf("want: expected quoted regexp, got %q", s)
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			return nil, fmt.Errorf("want: unterminated %c in %q", quote, s)
		}
		rx, err := regexp.Compile(s[1 : 1+end])
		if err != nil {
			return nil, fmt.Errorf("want: %v", err)
		}
		out = append(out, rx)
		s = s[2+end:]
	}
	return out, nil
}
