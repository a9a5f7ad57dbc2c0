// Package determinism defines the coolpim-vet analyzer guarding the
// simulator's core contract: the same seed must produce byte-identical
// exports (the internal/system regression tests diff trace, metrics and
// series output across runs). Every check here flags a construct that
// historically breaks that contract silently.
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"coolpim/internal/analyzers/analysis"
)

// Analyzer flags nondeterminism hazards in coolpim/internal/... non-test
// code: wall-clock reads, global math/rand use, goroutine spawns, and
// map iteration whose body schedules events, appends to exported slices
// or writes output.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "flag wall-clock reads, global math/rand, goroutine spawns and " +
		"order-sensitive map iteration in simulation packages",
	Run: run,
}

const (
	simPkg   = "coolpim/internal/sim"
	scopeAll = "coolpim/internal/"
)

// engineSchedulers are the sim.Engine methods that enqueue events; their
// call order is observable in the event sequence (via the tie-breaking
// sequence number), so calling them from a map iteration reorders the
// simulation run-to-run.
var engineSchedulers = map[string]bool{
	"At": true, "AtNamed": true, "AtLabel": true,
	"After": true, "AfterNamed": true, "AfterLabel": true,
	"Every": true, "EveryNamed": true,
}

func run(pass *analysis.Pass) error {
	if !strings.HasPrefix(pass.Pkg.Path(), scopeAll) {
		return nil
	}
	for _, f := range pass.Files {
		checkFile(pass, f)
	}
	return nil
}

func checkFile(pass *analysis.Pass, f *ast.File) {
	analysis.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkWallClock(pass, n, stack)
			checkGlobalRand(pass, n)
		case *ast.GoStmt:
			pass.Reportf(n.Pos(),
				"goroutine spawned in a simulation package: the engine is single-threaded; concurrent execution makes event interleaving scheduler-dependent")
		case *ast.RangeStmt:
			checkMapRange(pass, n)
		}
		return true
	})
}

// checkWallClock flags time.Now / time.Since. The one sanctioned reader
// is the engine's Observer profiling path in internal/sim (Engine.step),
// whose wall-clock measurements never feed back into simulated state.
func checkWallClock(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node) {
	if !analysis.IsPkgFunc(pass.TypesInfo, call, "time", "Now", "Since") {
		return
	}
	if pass.Pkg.Path() == simPkg && enclosingFuncName(stack) == "step" {
		return // baked-in exception: Observer profiling in Engine.step
	}
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	pass.Reportf(call.Pos(),
		"wall-clock read time.%s in a simulation package: results would vary with host timing; derive time from the engine clock", fn.Name())
}

// checkGlobalRand flags calls to math/rand (and v2) package-level
// functions other than the explicit-source constructors. The global RNG
// is process-wide mutable state: any other consumer perturbs the stream
// and the seed is invisible at the call site.
func checkGlobalRand(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	if path != "math/rand" && path != "math/rand/v2" {
		return
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return // methods on an explicit *rand.Rand are fine
	}
	switch fn.Name() {
	case "New", "NewSource", "NewPCG", "NewChaCha8", "NewZipf":
		return // constructing an explicitly seeded generator
	}
	pass.Reportf(call.Pos(),
		"global math/rand.%s uses process-wide RNG state: thread an explicitly seeded *rand.Rand instead", fn.Name())
}

// checkMapRange flags map iteration whose body performs an
// order-observable action. Go randomizes map iteration order per run, so
// scheduling events, growing exported state or writing output from
// inside the loop silently changes exports between runs.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if why := orderObservable(pass, call); why != "" {
			pass.Reportf(call.Pos(),
				"map iteration order is randomized per run, but this loop body %s; iterate sorted keys instead", why)
			return false
		}
		return true
	})
}

// orderObservable classifies a call inside a map-range body. It returns
// a non-empty reason when the call's effect depends on iteration order.
func orderObservable(pass *analysis.Pass, call *ast.CallExpr) string {
	info := pass.TypesInfo
	if m := analysis.MethodOn(info, call, simPkg, "Engine"); engineSchedulers[m] {
		return "schedules engine events (Engine." + m + ")"
	}
	if analysis.IsPkgFunc(info, call, "fmt",
		"Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf") {
		return "writes output (fmt." + analysis.CalleeFunc(info, call).Name() + ")"
	}
	if analysis.IsPkgFunc(info, call, "io", "WriteString") {
		return "writes output (io.WriteString)"
	}
	if fn := analysis.CalleeFunc(info, call); fn != nil &&
		fn.Type().(*types.Signature).Recv() != nil {
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			return "writes output (" + fn.Name() + ")"
		}
	}
	// append(Exported, ...) or append(x.Exported, ...): growing exported
	// state in iteration order leaks the order to every consumer.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
		if b, ok := info.Types[call.Fun]; ok && b.IsBuiltin() {
			if name := exportedTarget(info, call.Args[0]); name != "" {
				return "appends to exported slice " + name + " in iteration order"
			}
		}
	}
	return ""
}

// exportedTarget returns the name of the exported package-level variable
// or exported struct field that expr denotes, or "".
func exportedTarget(info *types.Info, expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok &&
			v.Exported() && !v.IsField() && v.Parent() == v.Pkg().Scope() {
			return v.Name()
		}
	case *ast.SelectorExpr:
		if v, ok := info.Uses[e.Sel].(*types.Var); ok && v.IsField() && v.Exported() {
			return v.Name()
		}
	}
	return ""
}

// enclosingFuncName returns the name of the innermost enclosing FuncDecl
// on the stack, or "".
func enclosingFuncName(stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd.Name.Name
		}
	}
	return ""
}
