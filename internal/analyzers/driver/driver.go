// Package driver runs a set of analyzers over one type-checked package
// and applies the //coolpim:allow suppression pass. coolpim-vet's sweep
// and the analysistest harness share it.
package driver

import (
	"cmp"
	"fmt"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"coolpim/internal/analyzers/allow"
	"coolpim/internal/analyzers/analysis"
	"coolpim/internal/analyzers/facts"
	"coolpim/internal/analyzers/load"
)

// Finding is one post-suppression diagnostic, attributed to its
// analyzer and resolved to a printable position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// Run executes the analyzers on the package, validates the
// //coolpim:allow directives of its files and test files against
// knownNames (reporting unknown or missing analyzer names under
// allow.CheckerName, and directives for analyzers that ran but
// suppressed nothing as stale), filters suppressed diagnostics, and
// returns the survivors sorted by position. store is the cross-package
// fact store shared across a sweep; nil gets a fresh one, which is
// correct for purely intra-package runs but loses facts between
// packages.
func Run(fset *token.FileSet, pkg *load.Package, analyzers []*analysis.Analyzer, knownNames []string, store *facts.Store) ([]Finding, error) {
	if store == nil {
		store = facts.NewStore()
	}
	var findings []Finding
	for _, a := range analyzers {
		a := a
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report: func(d analysis.Diagnostic) {
				findings = append(findings, Finding{
					Analyzer: a.Name,
					Pos:      fset.Position(d.Pos),
					Message:  d.Message,
				})
			},
			ExportFact: func(obj types.Object, f analysis.Fact) { store.Export(a.Name, obj, f) },
			ImportFact: func(obj types.Object, f analysis.Fact) bool { return store.Import(a.Name, obj, f) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}

	known := make(map[string]bool, len(knownNames)+1)
	for _, n := range knownNames {
		known[n] = true
	}
	known[allow.CheckerName] = true
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}

	// No analyzer reports in a test file, so a directive there that
	// names an analyzer that ran is always stale.
	directives := allow.Collect(fset, slices.Concat(pkg.Files, pkg.TestFiles))
	for _, d := range directives {
		switch {
		case d.Name == "":
			findings = append(findings, Finding{
				Analyzer: allow.CheckerName,
				Pos:      fset.Position(d.Pos),
				Message:  fmt.Sprintf("//%s directive names no analyzer; write //%s <analyzer> <reason>", allow.Prefix, allow.Prefix),
			})
		case !known[d.Name]:
			findings = append(findings, Finding{
				Analyzer: allow.CheckerName,
				Pos:      fset.Position(d.Pos),
				Message:  fmt.Sprintf("//%s directive names unknown analyzer %q (known: %v)", allow.Prefix, d.Name, knownNames),
			})
		}
	}

	used := make([]bool, len(directives))
	kept := findings[:0]
	for _, f := range findings {
		suppressed := false
		for i, d := range directives {
			if d.Suppresses(f.Analyzer, f.Pos) {
				suppressed = true
				used[i] = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, f)
		}
	}
	findings = kept

	// Stale-directive audit: a well-formed directive naming an analyzer
	// that ran in this pass must have suppressed at least one live
	// diagnostic; otherwise the code it excused has changed and the
	// exemption should be deleted. Directives naming analyzers that did
	// not run (a -only subset) are left alone.
	for i, d := range directives {
		if used[i] || d.Name == "" || !ran[d.Name] {
			continue
		}
		findings = append(findings, Finding{
			Analyzer: allow.CheckerName,
			Pos:      fset.Position(d.Pos),
			Message: fmt.Sprintf("stale //%s %s directive: it suppresses no diagnostic on line %d; delete it",
				allow.Prefix, d.Name, d.Target),
		})
	}

	slices.SortStableFunc(findings, Compare)
	return findings, nil
}

// Compare orders findings by file, line, column and analyzer.
func Compare(a, b Finding) int {
	return cmp.Or(
		strings.Compare(a.Pos.Filename, b.Pos.Filename),
		cmp.Compare(a.Pos.Line, b.Pos.Line),
		cmp.Compare(a.Pos.Column, b.Pos.Column),
		strings.Compare(a.Analyzer, b.Analyzer),
	)
}
