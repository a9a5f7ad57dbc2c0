// Package load parses and type-checks packages of this module (and
// analyzer testdata packages) from source, using only the standard
// library. Module-internal imports resolve against the repository tree;
// standard-library imports resolve through go/importer's source
// importer, which type-checks from $GOROOT/src. This keeps coolpim-vet,
// the analyzer test harness and the test-only API guard free of
// external dependencies.
package load

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Files []*ast.File
	// TestFiles are the directory's _test.go files, parsed for their
	// comments (the //coolpim:allow directives) and never type-checked.
	TestFiles []*ast.File
	Types     *types.Package
	Info      *types.Info
}

// Loader loads packages by import path with shared caches. It is not
// safe for concurrent use.
type Loader struct {
	Fset    *token.FileSet
	modRoot string
	modPath string
	goVer   string
	overlay map[string]string // import path -> source dir
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

var moduleLine = regexp.MustCompile(`(?m)^module\s+(\S+)`)
var goLine = regexp.MustCompile(`(?m)^go\s+(\S+)`)

// NewLoader returns a loader rooted at the module containing dir
// (searching upward for go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("load: no go.mod above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := moduleLine.FindSubmatch(data)
	if m == nil {
		return nil, fmt.Errorf("load: no module line in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	l := &Loader{
		Fset:    fset,
		modRoot: root,
		modPath: string(m[1]),
		overlay: make(map[string]string),
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	if g := goLine.FindSubmatch(data); g != nil {
		l.goVer = "go" + string(g[1])
	}
	return l, nil
}

// ModRoot returns the module root directory.
func (l *Loader) ModRoot() string { return l.modRoot }

// ModPath returns the module path.
func (l *Loader) ModPath() string { return l.modPath }

// Overlay maps an import path to a source directory, overriding normal
// resolution. Analyzer tests use this to load testdata packages under
// fake module-internal paths, so path-scoped analyzers treat them as
// simulation code.
func (l *Loader) Overlay(importPath, dir string) {
	l.overlay[importPath] = dir
}

// Load parses and type-checks the package at importPath.
func (l *Loader) Load(importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("load: import cycle through %q", importPath)
	}
	dir, ok := l.overlay[importPath]
	if !ok {
		if importPath == l.modPath {
			dir = l.modRoot
		} else if rest, found := strings.CutPrefix(importPath, l.modPath+"/"); found {
			dir = filepath.Join(l.modRoot, filepath.FromSlash(rest))
		} else {
			return nil, fmt.Errorf("load: %q is not a module or overlay package", importPath)
		}
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	files, testFiles, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files)+len(testFiles) == 0 {
		return nil, fmt.Errorf("load: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	cfg := &types.Config{Importer: (*loaderImporter)(l), GoVersion: l.goVer}
	tpkg, err := cfg.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: typecheck %s: %w", importPath, err)
	}
	p := &Package{Path: importPath, Files: files, TestFiles: testFiles, Types: tpkg, Info: info}
	l.pkgs[importPath] = p
	return p, nil
}

// parseDir parses the Go files of dir in filename order, splitting
// the non-test files from the _test.go files.
func (l *Loader) parseDir(dir string) (files, testFiles []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		if strings.HasSuffix(name, "_test.go") {
			testFiles = append(testFiles, f)
		} else {
			files = append(files, f)
		}
	}
	return files, testFiles, nil
}

// loaderImporter adapts Loader to types.Importer, routing module and
// overlay paths to source loading and everything else to the standard
// library's source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if _, ok := l.overlay[path]; ok || path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}
