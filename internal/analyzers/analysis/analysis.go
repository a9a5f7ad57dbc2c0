// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass, Diagnostic)
// used by the coolpim-vet suite. The container this repo builds in has no
// module proxy access, so the framework is grown from the standard
// library only; the API shape deliberately mirrors x/tools so the suite
// can migrate to the real package by swapping imports.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check of the suite.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //coolpim:allow directives. It must be a valid Go identifier.
	Name string
	// Doc is the one-paragraph description shown by -help.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
	// FactTypes lists pointer prototypes of the fact types the analyzer
	// exports and imports (see Fact). An analyzer with no fact types is
	// purely intra-package.
	FactTypes []Fact
}

// Fact is a datum an analyzer attaches to a package-level object
// (function or method) in one package and reads back when analyzing a
// dependent package — the cross-package propagation mechanism, modeled
// on golang.org/x/tools/go/analysis facts. Implementations must be
// pointers to structs.
type Fact interface {
	AFact() // marker method; dedicated to this interface
}

// Pass carries one package's worth of parsed and type-checked input to
// an Analyzer's Run function, plus the Report sink for diagnostics.
// Files holds the package's non-test files only: the suite's invariants
// guard simulation code, and tests are free to read wall clocks, spawn
// helpers and compare floats.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	// ExportFact and ImportFact are bound by the driver to the run's
	// fact store; analyzers use the ExportObjectFact / ImportObjectFact
	// wrappers. Either may be nil (fact-free front ends).
	ExportFact func(obj types.Object, fact Fact)
	ImportFact func(obj types.Object, fact Fact) bool
}

// ExportObjectFact records a fact about obj, visible to later analyses
// of packages that import this one. obj must be a package-level
// function or method of the pass's package; other objects are ignored.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.ExportFact != nil {
		p.ExportFact(obj, fact)
	}
}

// ImportObjectFact copies the fact previously exported about obj (by
// this analyzer, possibly while analyzing another package) into fact and
// reports whether one existed.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.ImportFact == nil {
		return false
	}
	return p.ImportFact(obj, fact)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// WalkStack traverses every node of f in source order, calling fn with
// the node and the stack of its ancestors (outermost first, not
// including n itself). If fn returns false the node's children are
// skipped.
func WalkStack(f *ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if !descend {
			// ast.Inspect will not call us again for this subtree, so
			// the pop callback never fires: do not push.
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// Named unwraps pointers and returns the named type beneath t, or nil.
func Named(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		case *types.Alias:
			t = types.Unalias(tt)
		default:
			return nil
		}
	}
}

// IsNamed reports whether t (or its pointee) is the named type
// pkgPath.name.
func IsNamed(t types.Type, pkgPath, name string) bool {
	n := Named(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// TypeFromPkg returns the (pkgPath, typename) of the named type beneath
// t, or ("", "") if t is not a named type or is predeclared.
func TypeFromPkg(t types.Type) (pkgPath, name string) {
	n := Named(t)
	if n == nil || n.Obj().Pkg() == nil {
		return "", ""
	}
	return n.Obj().Pkg().Path(), n.Obj().Name()
}

// CalleeFunc resolves the called function or method object of call, or
// nil for conversions, calls of function-typed variables and builtins.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsPkgFunc reports whether call invokes a package-level function of
// pkgPath named one of names.
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) bool {
	fn := CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// MethodOn returns the method name if call invokes a method whose
// receiver type (or its pointee) is the named type pkgPath.typeName;
// otherwise "".
func MethodOn(info *types.Info, call *ast.CallExpr, pkgPath, typeName string) string {
	fn := CalleeFunc(info, call)
	if fn == nil {
		return ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || !IsNamed(recv.Type(), pkgPath, typeName) {
		return ""
	}
	return fn.Name()
}
