// Package eventhygiene defines the coolpim-vet analyzer guarding the
// discrete-event engine's scheduling contract. Event closures run long
// after the statement that scheduled them, so they must close over
// stable state: capturing a loop variable couples the event to iteration
// state (a policy the suite enforces even though Go ≥1.22 makes loop
// variables per-iteration — event code must not need language-version
// archaeology to review), and re-entering the scheduler's run loop from
// inside an event corrupts the engine's single-threaded state.
package eventhygiene

import (
	"go/ast"
	"go/types"
	"strings"

	"coolpim/internal/analyzers/analysis"
)

// Analyzer flags event closures passed to Engine.At*/After*/Every* that
// capture enclosing loop variables, and closures that call Engine.Run or
// Engine.RunUntil reentrantly. Engine.Halt is the sanctioned way for an
// event to stop the run and is not flagged.
var Analyzer = &analysis.Analyzer{
	Name: "eventhygiene",
	Doc: "flag event closures capturing loop variables or re-entering " +
		"the engine run loop",
	Run: run,
}

const simPkg = "coolpim/internal/sim"

// schedulers are the Engine methods taking an event (or ticker) closure.
var schedulers = map[string]bool{
	"At": true, "AtNamed": true, "AtLabel": true,
	"After": true, "AfterNamed": true, "AfterLabel": true,
	"Every": true, "EveryNamed": true,
}

func run(pass *analysis.Pass) error {
	if !strings.HasPrefix(pass.Pkg.Path(), "coolpim") {
		return nil
	}
	for _, f := range pass.Files {
		analysis.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			m := analysis.MethodOn(pass.TypesInfo, call, simPkg, "Engine")
			if !schedulers[m] {
				return true
			}
			loopVars := loopVarsInScope(pass.TypesInfo, stack)
			for _, arg := range call.Args {
				lit, ok := ast.Unparen(arg).(*ast.FuncLit)
				if !ok {
					continue
				}
				checkClosure(pass, m, lit, loopVars)
			}
			return true
		})
	}
	return nil
}

// checkClosure inspects one event closure for captured loop variables
// and reentrant run-loop calls.
func checkClosure(pass *analysis.Pass, sched string, lit *ast.FuncLit, loopVars map[*types.Var]bool) {
	reported := make(map[*types.Var]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			v, ok := pass.TypesInfo.Uses[n].(*types.Var)
			if ok && loopVars[v] && !reported[v] {
				reported[v] = true
				pass.Reportf(n.Pos(),
					"event closure passed to Engine.%s captures loop variable %s: the event runs after the loop, so bind the value it needs to a fresh local outside the closure", sched, n.Name)
			}
		case *ast.CallExpr:
			switch m := analysis.MethodOn(pass.TypesInfo, n, simPkg, "Engine"); m {
			case "Run", "RunUntil":
				pass.Reportf(n.Pos(),
					"event closure calls Engine.%s reentrantly: events already execute inside the run loop; schedule follow-up work or call Halt instead", m)
			}
		}
		return true
	})
}

// loopVarsInScope collects the iteration variables of every for/range
// statement on the ancestor stack: range key/value identifiers and
// variables declared (:=) in a for-clause init.
func loopVarsInScope(info *types.Info, stack []ast.Node) map[*types.Var]bool {
	vars := make(map[*types.Var]bool)
	addDef := func(e ast.Expr) {
		if e == nil {
			return
		}
		if id, ok := e.(*ast.Ident); ok {
			if v, ok := info.Defs[id].(*types.Var); ok {
				vars[v] = true
			}
		}
	}
	for _, n := range stack {
		switch n := n.(type) {
		case *ast.RangeStmt:
			addDef(n.Key)
			addDef(n.Value)
		case *ast.ForStmt:
			if init, ok := n.Init.(*ast.AssignStmt); ok {
				for _, lhs := range init.Lhs {
					addDef(lhs)
				}
			}
		}
	}
	return vars
}
