// Package telemetrysafe defines the coolpim-vet analyzer guarding the
// telemetry layer's contract: a nil hub/tracer/sampler is the disabled
// state, and the disabled path must stay a single predictable branch
// with no allocation (internal/telemetry's package doc and benchmarks).
// Two checks enforce the two halves of that contract:
//
//  1. inside internal/telemetry, every exported method on an instrument
//     type with a pointer receiver must begin with a nil-receiver guard,
//     so call sites can stay unguarded;
//  2. at call sites elsewhere, argument expressions must not allocate
//     (fmt.Sprintf, non-constant string concatenation) — arguments are
//     evaluated before the callee's nil check runs, so the "disabled"
//     path would still pay the formatting cost on every event.
package telemetrysafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"coolpim/internal/analyzers/analysis"
)

// Analyzer flags telemetry methods missing nil-receiver guards and
// allocation-bearing arguments built before the guard can run.
var Analyzer = &analysis.Analyzer{
	Name: "telemetrysafe",
	Doc: "flag telemetry emit/record methods without nil-receiver guards " +
		"and allocating argument construction at telemetry call sites",
	Run: run,
}

const telemetryPkg = "coolpim/internal/telemetry"

// instruments are the hot-path types whose methods are called from
// per-event simulation code and must be nil-safe. Registry and Counter
// are exempt by design: registration happens once at wiring time and
// panics loudly, and counters are only handed out non-nil.
var instruments = map[string]bool{
	"Telemetry":      true,
	"Histogram":      true,
	"EngineProfile":  true,
	"SpanTracer":     true,
	"FlightRecorder": true,
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	if !strings.HasPrefix(path, "coolpim") {
		return nil
	}
	inTelemetry := path == telemetryPkg
	for _, f := range pass.Files {
		analysis.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if inTelemetry {
					checkGuard(pass, n)
				}
			case *ast.CallExpr:
				if !inTelemetry {
					checkCallSite(pass, n, stack)
				}
			}
			return true
		})
	}
	return nil
}

// checkGuard requires exported pointer-receiver methods on instrument
// types to open with a nil-receiver guard: either
//
//	if recv == nil { return ... }   (possibly `recv == nil || more`)
//
// or a body that is a single `return recv == nil`-style expression (the
// Enabled() predicate shape, which dereferences nothing).
func checkGuard(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Recv == nil || len(fd.Recv.List) != 1 || !fd.Name.IsExported() || fd.Body == nil {
		return
	}
	recvType := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	if recvType == nil {
		return
	}
	if _, isPtr := recvType.(*types.Pointer); !isPtr {
		return
	}
	_, typeName := analysis.TypeFromPkg(recvType)
	if !instruments[typeName] {
		return
	}
	var recvName string
	if names := fd.Recv.List[0].Names; len(names) == 1 {
		recvName = names[0].Name
	}
	if recvName == "" || recvName == "_" {
		// No way to guard without a named receiver; flag so the author
		// names it and guards.
		pass.Reportf(fd.Pos(),
			"exported %s.%s has an unnamed receiver and therefore no nil-receiver guard; a nil (disabled) %s would panic here",
			typeName, fd.Name.Name, typeName)
		return
	}
	if bodyIsNilSafe(fd.Body, recvName) {
		return
	}
	pass.Reportf(fd.Pos(),
		"exported %s.%s must begin with `if %s == nil` so a disabled (nil) instrument is a no-op; callers do not guard telemetry calls",
		typeName, fd.Name.Name, recvName)
}

// bodyIsNilSafe recognizes the two sanctioned openings described on
// checkGuard.
func bodyIsNilSafe(body *ast.BlockStmt, recv string) bool {
	if len(body.List) == 0 {
		return true // empty body dereferences nothing
	}
	switch first := body.List[0].(type) {
	case *ast.IfStmt:
		return condChecksNil(first.Cond, recv) && len(first.Body.List) > 0
	case *ast.ReturnStmt:
		if len(body.List) == 1 && len(first.Results) == 1 {
			if b, ok := first.Results[0].(*ast.BinaryExpr); ok {
				return isNilComparison(b, recv)
			}
		}
	}
	return false
}

// condChecksNil matches `recv == nil` possibly followed by || clauses
// (short-circuit keeps later clauses from dereferencing nil first).
func condChecksNil(cond ast.Expr, recv string) bool {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	if b.Op == token.LOR {
		return condChecksNil(b.X, recv)
	}
	return isNilComparison(b, recv)
}

func isNilComparison(b *ast.BinaryExpr, recv string) bool {
	if b.Op != token.EQL && b.Op != token.NEQ {
		return false
	}
	isRecv := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == recv
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return (isRecv(b.X) && isNil(b.Y)) || (isNil(b.X) && isRecv(b.Y))
}

// checkCallSite flags allocation performed while building arguments to
// an instrument method, unless an enclosing if already proved telemetry
// enabled (an Enabled() call or a `!= nil` test of an instrument).
func checkCallSite(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || !fn.Exported() {
		return
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return
	}
	pkg, typeName := analysis.TypeFromPkg(sig.Recv().Type())
	if pkg != telemetryPkg || !instruments[typeName] {
		return
	}
	if guardedByEnabled(pass.TypesInfo, stack) {
		return
	}
	for _, arg := range call.Args {
		if why := allocating(pass.TypesInfo, arg); why != "" {
			pass.Reportf(arg.Pos(),
				"%s is evaluated before %s.%s can check its nil receiver: the disabled path pays the allocation on every event; precompute it or guard with an Enabled() check",
				why, typeName, fn.Name())
		}
	}
}

// guardedByEnabled reports whether any enclosing if condition
// establishes that telemetry is enabled: a call to an Enabled method on
// an instrument, or a nil comparison involving an instrument value.
// Allocation behind such a guard costs nothing when telemetry is off.
func guardedByEnabled(info *types.Info, stack []ast.Node) bool {
	for _, n := range stack {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		guards := false
		ast.Inspect(ifStmt.Cond, func(c ast.Node) bool {
			if guards {
				return false
			}
			switch c := c.(type) {
			case *ast.CallExpr:
				fn := analysis.CalleeFunc(info, c)
				if fn == nil || fn.Name() != "Enabled" {
					break
				}
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					if pkg, name := analysis.TypeFromPkg(recv.Type()); pkg == telemetryPkg && instruments[name] {
						guards = true
					}
				}
			case *ast.BinaryExpr:
				if c.Op == token.EQL || c.Op == token.NEQ {
					for _, e := range []ast.Expr{c.X, c.Y} {
						if tv, ok := info.Types[e]; ok {
							if pkg, name := analysis.TypeFromPkg(tv.Type); pkg == telemetryPkg && instruments[name] {
								guards = true
							}
						}
					}
				}
			}
			return !guards
		})
		if guards {
			return true
		}
	}
	return false
}

// allocating returns a description of the first allocation-bearing
// construct in the argument expression, or "".
func allocating(info *types.Info, arg ast.Expr) string {
	why := ""
	ast.Inspect(arg, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if analysis.IsPkgFunc(info, n, "fmt", "Sprintf", "Sprint", "Sprintln", "Errorf") {
				why = "fmt." + analysis.CalleeFunc(info, n).Name() + " call"
				return false
			}
			if analysis.IsPkgFunc(info, n, "strings", "Join", "Repeat") {
				why = "strings." + analysis.CalleeFunc(info, n).Name() + " call"
				return false
			}
		case *ast.BinaryExpr:
			if n.Op != token.ADD {
				return true
			}
			tv, ok := info.Types[n]
			if !ok || tv.Value != nil {
				return true // constant-folded at compile time
			}
			if basic, ok := tv.Type.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
				why = "non-constant string concatenation"
				return false
			}
		}
		return true
	})
	return why
}
