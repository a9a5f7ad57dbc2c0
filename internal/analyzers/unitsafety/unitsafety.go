// Package unitsafety defines the coolpim-vet analyzer guarding the
// internal/units type discipline. The paper's power model mixes pJ/bit
// energies, watts, °C and picosecond timestamps; the named types in
// internal/units make those dimensions distinct, and this analyzer
// closes the three remaining holes the type system leaves open: untyped
// constants converting implicitly at call sites, dimension-destroying
// arithmetic, and exact floating-point comparison.
package unitsafety

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"coolpim/internal/analyzers/analysis"
)

// Analyzer flags unit-discipline violations outside internal/units:
// bare numeric literals flowing into unit-typed parameters, products of
// two dimensioned quantities, float64 escapes mixing distinct units, and
// ==/!= between floating-point unit values.
var Analyzer = &analysis.Analyzer{
	Name: "unitsafety",
	Doc: "flag untyped constants passed as unit-typed parameters, " +
		"dimension-mixing arithmetic and float unit equality",
	Run: run,
}

const unitsPkg = "coolpim/internal/units"

// floatUnits are the units types with a floating-point representation,
// for which == and != are almost always a rounding bug. Time is int64
// picoseconds and compares exactly.
var floatUnits = map[string]bool{
	"Celsius": true, "Watt": true, "Joule": true,
	"BytesPerSecond": true, "EnergyPerBit": true,
	"ThermalResistance": true, "OpsPerNs": true,
}

// unitTypeName returns the internal/units type name beneath t, or "".
func unitTypeName(t types.Type) string {
	if pkg, name := analysis.TypeFromPkg(t); pkg == unitsPkg {
		return name
	}
	return ""
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	if path == unitsPkg || !strings.HasPrefix(path, "coolpim") {
		return nil
	}
	for _, f := range pass.Files {
		// Table-literal files transcribe the paper's parameter tables
		// (Table II pJ/bit figures, Table IV derating phases); demanding
		// a unit constructor on every cell would bury the data.
		base := pass.Fset.Position(f.Pos()).Filename
		if i := strings.LastIndexByte(base, '/'); i >= 0 {
			base = base[i+1:]
		}
		if strings.Contains(base, "table") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCallArgs(pass, n)
			case *ast.BinaryExpr:
				checkBinary(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkCallArgs flags untyped numeric constants implicitly converting to
// a unit-typed parameter: At(5, ...) compiles, but 5 what? Callers must
// write the dimension (5*units.Nanosecond, units.Celsius(5), a units
// constant) at the call site. Literal 0 is exempt: zero is zero in every
// unit.
func checkCallArgs(pass *analysis.Pass, call *ast.CallExpr) {
	info := pass.TypesInfo
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() {
		return // conversion, not a call
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pt := paramType(sig, i, call)
		if pt == nil {
			continue
		}
		name := unitTypeName(pt)
		if name == "" {
			continue
		}
		atv, ok := info.Types[arg]
		if !ok || atv.Value == nil {
			continue // not a constant expression
		}
		// Named constants (units.Second, a package-local maxTime) carry a
		// name that documents the dimension; only anonymous literals are
		// flagged. Zero is exempt: zero is zero in every unit.
		if isZero(atv) || !literalOnly(arg) {
			continue
		}
		pass.Reportf(arg.Pos(),
			"bare constant %s converts implicitly to units.%s: write the dimension at the call site (e.g. a units.%s constructor or constant)",
			atv.Value.String(), name, name)
	}
}

// paramType resolves the declared type of argument i, handling variadic
// tails; it returns nil for f(slice...) forwarding.
func paramType(sig *types.Signature, i int, call *ast.CallExpr) types.Type {
	n := sig.Params().Len()
	if sig.Variadic() {
		if call.Ellipsis.IsValid() {
			return nil
		}
		if i >= n-1 {
			return sig.Params().At(n - 1).Type().(*types.Slice).Elem()
		}
		return sig.Params().At(i).Type()
	}
	if i >= n {
		return nil
	}
	return sig.Params().At(i).Type()
}

func isZero(tv types.TypeAndValue) bool {
	return tv.Value != nil && tv.Value.String() == "0"
}

// literalOnly reports whether expr is built purely from numeric literals
// and arithmetic — no identifier, selector or conversion anywhere, so
// nothing in the source names the dimension.
func literalOnly(expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.BasicLit:
		return true
	case *ast.UnaryExpr:
		return literalOnly(e.X)
	case *ast.BinaryExpr:
		return literalOnly(e.X) && literalOnly(e.Y)
	}
	return false
}

func checkBinary(pass *analysis.Pass, b *ast.BinaryExpr) {
	info := pass.TypesInfo
	switch b.Op {
	case token.MUL:
		// unit × unit has no representable dimension: Time*Time is ps²
		// stored in a ps-typed value. Scaling by a dimensionless factor
		// (an untyped constant or plain number) is fine.
		lx, ly := operandUnit(info, b.X), operandUnit(info, b.Y)
		if lx != "" && ly != "" {
			pass.Reportf(b.OpPos,
				"product of two dimensioned quantities (units.%s × units.%s) has no represented unit: convert explicitly and document the dimension", lx, ly)
		}
	case token.ADD, token.SUB:
		// float64(a) ± float64(b) with a, b of different unit types is
		// the escape hatch around the compiler's named-type check.
		lx, ly := escapedUnit(info, b.X), escapedUnit(info, b.Y)
		if lx != "" && ly != "" && lx != ly {
			pass.Reportf(b.OpPos,
				"float64 conversions mix units.%s and units.%s in one sum: convert through a physically meaningful operation instead", lx, ly)
		}
	case token.EQL, token.NEQ:
		if name := floatUnitOperand(info, b.X, b.Y); name != "" {
			pass.Reportf(b.OpPos,
				"exact %s comparison of floating-point units.%s: integrator rounding makes equality unreliable; use an ordered comparison or tolerance", b.Op, name)
		}
	}
}

// operandUnit returns the unit type of a non-constant operand, or "".
func operandUnit(info *types.Info, e ast.Expr) string {
	tv, ok := info.Types[e]
	if !ok || tv.Value != nil {
		return ""
	}
	return unitTypeName(tv.Type)
}

// escapedUnit matches float64(x) where x has a unit type, returning that
// unit's name.
func escapedUnit(info *types.Info, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return ""
	}
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return ""
	}
	if basic, ok := tv.Type.Underlying().(*types.Basic); !ok || basic.Kind() != types.Float64 {
		return ""
	}
	atv, ok := info.Types[call.Args[0]]
	if !ok || atv.Value != nil {
		return ""
	}
	return unitTypeName(atv.Type)
}

// floatUnitOperand returns the name of a float-backed unit type among
// the operands of an equality, or "". Comparisons against literal 0 are
// still flagged: thermal integrators approach zero, they do not land on
// it.
func floatUnitOperand(info *types.Info, x, y ast.Expr) string {
	for _, e := range []ast.Expr{x, y} {
		tv, ok := info.Types[e]
		if !ok {
			continue
		}
		if name := unitTypeName(tv.Type); floatUnits[name] {
			return name
		}
	}
	return ""
}
