package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"coolpim/internal/analyzers"
	"coolpim/internal/analyzers/analysis"
	"coolpim/internal/analyzers/driver"
	"coolpim/internal/analyzers/facts"
	"coolpim/internal/analyzers/load"
)

// sweepDirs analyzes the package directories args names, or every
// package under the enclosing module when args is empty ("./..."
// recurses from a directory), and returns the findings sorted by
// position, with paths relative to the working directory.
func sweepDirs(args []string, suite []*analysis.Analyzer) ([]driver.Finding, error) {
	loader, err := load.NewLoader(".")
	if err != nil {
		return nil, err
	}
	var dirs []string
	if len(args) == 0 {
		args = []string{"./..."}
	}
	for _, arg := range args {
		if rest, ok := strings.CutSuffix(arg, "..."); ok {
			root := filepath.Clean(rest)
			if root == "" || root == "." {
				root = loader.ModRoot()
			}
			sub, err := packageDirs(root)
			if err != nil {
				return nil, err
			}
			dirs = append(dirs, sub...)
			continue
		}
		dirs = append(dirs, filepath.Clean(arg))
	}
	s := newSweep(loader, suite)
	for _, dir := range dirs {
		importPath, err := importPathFor(loader, dir)
		if err != nil {
			return nil, err
		}
		if err := s.analyze(importPath); err != nil {
			return nil, err
		}
	}
	slices.SortStableFunc(s.findings, driver.Compare)
	for i := range s.findings {
		s.findings[i].Pos.Filename = relPath(s.findings[i].Pos.Filename)
	}
	return s.findings, nil
}

// packageDirs lists directories under root containing Go files, test
// files included, skipping testdata, hidden and tool-output directories.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == "bin" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// importPathFor maps a directory to its import path within the module.
func importPathFor(loader *load.Loader, dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(loader.ModRoot(), abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("%s is outside module %s", dir, loader.ModRoot())
	}
	if rel == "." {
		return loader.ModPath(), nil
	}
	return loader.ModPath() + "/" + filepath.ToSlash(rel), nil
}

// sweep analyzes packages once each, dependencies first, accumulating
// findings and facts.
type sweep struct {
	loader   *load.Loader
	suite    []*analysis.Analyzer
	store    *facts.Store
	done     map[string]bool
	findings []driver.Finding
}

func newSweep(loader *load.Loader, suite []*analysis.Analyzer) *sweep {
	return &sweep{loader: loader, suite: suite, store: facts.NewStore(), done: make(map[string]bool)}
}

// analyze runs the suite over importPath after its in-module imports,
// so cross-package analyzers find their dependencies' facts in the
// store. Dependencies pulled in only for facts are analyzed identically
// — their findings count too, since a dirty dependency is just as much
// a lint failure.
func (s *sweep) analyze(importPath string) error {
	if s.done[importPath] {
		return nil
	}
	s.done[importPath] = true
	pkg, err := s.loader.Load(importPath)
	if err != nil {
		return err
	}
	modPrefix := s.loader.ModPath() + "/"
	for _, imp := range pkg.Types.Imports() {
		if imp.Path() == s.loader.ModPath() || strings.HasPrefix(imp.Path(), modPrefix) {
			if err := s.analyze(imp.Path()); err != nil {
				return err
			}
		}
	}
	findings, err := driver.Run(s.loader.Fset, pkg, s.suite, analyzers.Names(), s.store)
	if err != nil {
		return err
	}
	s.findings = append(s.findings, findings...)
	return nil
}

// jsonFinding is the -json record shape: one flat object per
// diagnostic, emitted as a sorted array for deterministic output.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// emit writes the findings as a JSON array on stdout, or as text lines
// on stderr followed, with out.github, by their ::error annotations.
func emit(findings []driver.Finding, out outputOptions, stdout, stderr io.Writer) error {
	if out.jsonOut {
		recs := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			recs = append(recs, jsonFinding{
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Col:      f.Pos.Column,
				Analyzer: f.Analyzer,
				Message:  f.Message,
			})
		}
		data, err := json.MarshalIndent(recs, "", "\t")
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(stdout, "%s\n", data)
		return err
	}
	for _, f := range findings {
		fmt.Fprintln(stderr, f)
		if out.github {
			fmt.Fprintln(stderr, githubAnnotation(f))
		}
	}
	return nil
}

// relPath renders a finding path relative to the working directory when
// possible, which is what both humans and GitHub annotations want.
func relPath(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	rel, err := filepath.Rel(wd, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}

// githubAnnotation renders a finding as a GitHub Actions workflow
// command, which the Actions runner turns into an inline PR annotation.
func githubAnnotation(f driver.Finding) string {
	msg := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A").Replace(f.Message)
	return fmt.Sprintf("::error file=%s,line=%d,col=%d,title=coolpim-vet %s::%s",
		f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, msg)
}
