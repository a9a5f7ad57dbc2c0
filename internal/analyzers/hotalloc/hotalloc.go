// Package hotalloc defines the coolpim-vet analyzer that proves the
// simulator's hot paths allocation-free at lint time. The runtime
// AllocsPerRun==0 pins (event loop, thermal stencil, applyPower tick,
// nil telemetry) only cover the exact call chains the tests drive; this
// analyzer covers everything reachable from a `//coolpim:hotpath`
// annotation through the package call graph, and propagates across
// package boundaries with facts.
//
// Rules, applied to every hot-reachable function body:
//
//   - make, new, and append are allocation sites (append may grow).
//   - Map writes may grow the map.
//   - Function literals that capture variables allocate at creation;
//     capture-free literals are exempt.
//   - Method values (x.M used as a value) allocate a bound-method
//     closure.
//   - Non-constant string concatenation, string<->[]byte/[]rune and
//     int->string conversions allocate.
//   - &T{...} and slice/map composite literals allocate.
//   - At call boundaries, a concrete non-pointer-shaped argument passed
//     to an interface parameter boxes; calls of variadic functions
//     without `...` pack a new slice.
//   - Calls into other packages require a clean hotalloc fact on the
//     callee (or membership in the small stdlib intrinsics table).
//   - Dynamic calls — interface dispatch, function values — cannot be
//     proven and are themselves diagnostics.
//
// Escapes: allocation sites lexically inside panic(...) arguments are
// exempt (the path is terminal), and `//coolpim:allow hotalloc` excuses
// one line while keeping the function's exported fact clean, so a
// documented amortized append does not poison every caller.
//
// The variant `//coolpim:hotpath nilfast` marks functions whose
// *disabled* path is the contract (telemetry instruments): the analyzer
// verifies the body opens with an `if x == nil { return }` guard,
// treats the function as allocation-free for callers, and does not
// analyze the enabled path.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"coolpim/internal/analyzers/allow"
	"coolpim/internal/analyzers/analysis"
	"coolpim/internal/analyzers/callgraph"
)

// Name is the analyzer's name, as used in //coolpim:allow directives.
const Name = "hotalloc"

// Analyzer is the hotalloc analyzer.
var Analyzer = &analysis.Analyzer{
	Name: Name,
	Doc: "prove //coolpim:hotpath functions and everything reachable from " +
		"them allocation-free, propagating across packages via facts",
	Run:       run,
	FactTypes: []analysis.Fact{(*Fact)(nil)},
}

// Fact records whether calling a function can allocate. It is exported
// for every package-level function and method of an analyzed package.
type Fact struct {
	Allocates bool
	Reason    string
}

// AFact marks Fact as an analysis fact.
func (*Fact) AFact() {}

func (f *Fact) String() string {
	if !f.Allocates {
		return "allocation-free"
	}
	return "allocates: " + f.Reason
}

// Prefix is the comment text (after //) introducing a hotpath root
// annotation.
const Prefix = "coolpim:hotpath"

const scope = "coolpim/internal/"

// intrinsicPkgs are stdlib packages whose entire API is allocation-free.
var intrinsicPkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
}

// intrinsicFuncs are individually vetted allocation-free stdlib
// functions and methods, keyed "pkg.Func" or "pkg.(Type).Method".
var intrinsicFuncs = map[string]bool{
	"time.Since":           true,
	"time.Now":             true,
	"sort.SearchInts":      true,
	"sort.SearchFloat64s":  true,
	"time.(Time).UnixNano": true,
}

type site struct {
	pos token.Pos
	msg string
}

type nodeInfo struct {
	node    *callgraph.Node
	sites   []site
	callees []*callgraph.Node
	dirty   bool
	reason  string // first allocation reason, for the exported fact
	nilfast bool
}

type checker struct {
	pass   *analysis.Pass
	graph  *callgraph.Graph
	infos  map[*callgraph.Node]*nodeInfo
	allows []allow.Directive // hotalloc directives only
}

func run(pass *analysis.Pass) error {
	if !strings.HasPrefix(pass.Pkg.Path(), scope) {
		return nil
	}
	files := pass.Files
	c := &checker{
		pass:  pass,
		graph: callgraph.Build(files, pass.TypesInfo),
		infos: make(map[*callgraph.Node]*nodeInfo),
	}
	for _, d := range allow.Collect(pass.Fset, files) {
		if d.Name == Name {
			c.allows = append(c.allows, d)
		}
	}

	roots := c.collectRoots(files)

	// Local pass: allocation sites and same-package callees per node.
	for _, n := range c.graph.Nodes {
		c.analyze(n)
	}

	// Dirtiness fixpoint over same-package static edges (cycles make a
	// single DFS awkward; the graph is small).
	for changed := true; changed; {
		changed = false
		for _, info := range c.infos {
			if info.dirty {
				continue
			}
			for _, s := range info.sites {
				if !c.allowed(s.pos) {
					info.dirty = true
					info.reason = s.msg + " at " + c.shortPos(s.pos)
					break
				}
			}
			if !info.dirty {
				for _, callee := range info.callees {
					if ci := c.infos[callee]; ci != nil && ci.dirty {
						info.dirty = true
						info.reason = "calls " + callee.String() + " which allocates (" + ci.reason + ")"
						break
					}
				}
			}
			if info.dirty {
				changed = true
			}
		}
	}

	// Hot set: everything reachable from the roots.
	hot := make(map[*callgraph.Node]bool)
	var mark func(n *callgraph.Node)
	mark = func(n *callgraph.Node) {
		info := c.infos[n]
		if hot[n] || info == nil || info.nilfast {
			return
		}
		hot[n] = true
		for _, callee := range info.callees {
			mark(callee)
		}
	}
	for _, n := range roots {
		mark(n)
	}

	// Diagnostics: every site of every hot function. Allowed sites are
	// reported too — the driver suppresses them, which keeps the
	// directives demonstrably live.
	for _, n := range c.graph.Nodes {
		if !hot[n] {
			continue
		}
		for _, s := range c.infos[n].sites {
			c.pass.Reportf(s.pos, "%s (on the %s hot path)", s.msg, n)
		}
	}

	// Facts: one per declared function, clean or dirty, so dependent
	// packages can check their cross-package calls.
	for _, n := range c.graph.Nodes {
		if n.Fn == nil {
			continue
		}
		info := c.infos[n]
		f := &Fact{}
		if info != nil && info.dirty {
			f.Allocates = true
			f.Reason = info.reason
		}
		c.pass.ExportObjectFact(n.Fn, f)
	}
	return nil
}

// collectRoots parses //coolpim:hotpath directives and resolves each to
// the function or literal starting on the directive's target line
// (its own line when code shares it, the next line otherwise — the
// same convention as //coolpim:allow).
func (c *checker) collectRoots(files []*ast.File) []*callgraph.Node {
	type directive struct {
		pos     token.Pos
		file    string
		target  int
		nilfast bool
	}
	var directives []directive
	for _, f := range files {
		codeLines := make(map[int]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case nil, *ast.Comment, *ast.CommentGroup:
				return n == nil
			}
			codeLines[c.pass.Fset.Position(n.Pos()).Line] = true
			return true
		})
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				text, ok := strings.CutPrefix(cm.Text, "//"+Prefix)
				if !ok {
					continue
				}
				pos := c.pass.Fset.Position(cm.Pos())
				d := directive{pos: cm.Pos(), file: pos.Filename, target: pos.Line}
				if !codeLines[pos.Line] {
					d.target = pos.Line + 1
				}
				// Everything after the first token is free-form
				// rationale, mirroring //coolpim:allow's reason field.
				arg := ""
				if rest := strings.TrimSpace(text); rest != "" && !strings.HasPrefix(rest, "//") {
					arg = strings.Fields(rest)[0]
				}
				switch arg {
				case "":
				case "nilfast":
					d.nilfast = true
				default:
					c.pass.Reportf(cm.Pos(), "//%s directive has unknown argument %q (only \"nilfast\" is recognized)", Prefix, arg)
					continue
				}
				directives = append(directives, d)
			}
		}
	}
	var roots []*callgraph.Node
	for _, d := range directives {
		var match *callgraph.Node
		for _, n := range c.graph.Nodes {
			if n.Body() == nil {
				continue
			}
			pos := c.pass.Fset.Position(n.Pos())
			if pos.Filename == d.file && pos.Line == d.target {
				match = n
				break
			}
		}
		if match == nil {
			c.pass.Reportf(d.pos, "//%s directive attaches to no function: nothing starts on line %d", Prefix, d.target)
			continue
		}
		if d.nilfast {
			info := c.info(match)
			info.nilfast = true
			c.checkNilfastGuard(match)
			continue
		}
		roots = append(roots, match)
	}
	return roots
}

// checkNilfastGuard verifies a nilfast function opens with the
// `if x == nil { return }` disabled-path guard its clean fact asserts.
func (c *checker) checkNilfastGuard(n *callgraph.Node) {
	body := n.Body()
	ok := false
	if body != nil && len(body.List) > 0 {
		if ifs, isIf := body.List[0].(*ast.IfStmt); isIf && ifs.Init == nil {
			if cond, isBin := ifs.Cond.(*ast.BinaryExpr); isBin && isNilCheck(cond, c.pass.TypesInfo) {
				if len(ifs.Body.List) > 0 {
					if _, isRet := ifs.Body.List[len(ifs.Body.List)-1].(*ast.ReturnStmt); isRet {
						ok = true
					}
				}
			}
		}
	}
	if !ok {
		c.pass.Reportf(n.Pos(), "//%s nilfast function %s must open with an `if x == nil { return }` guard: its allocation-free contract covers only the disabled path", Prefix, n)
	}
}

// isNilCheck reports whether cond contains `x == nil` (either operand
// order), possibly as one arm of a `t == nil || n <= 0` compound guard.
func isNilCheck(cond *ast.BinaryExpr, info *types.Info) bool {
	if cond.Op == token.LOR {
		if l, ok := ast.Unparen(cond.X).(*ast.BinaryExpr); ok && isNilCheck(l, info) {
			return true
		}
		r, ok := ast.Unparen(cond.Y).(*ast.BinaryExpr)
		return ok && isNilCheck(r, info)
	}
	if cond.Op != token.EQL {
		return false
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil" && info.Uses[id] == types.Universe.Lookup("nil")
	}
	return isNil(cond.X) || isNil(cond.Y)
}

func (c *checker) info(n *callgraph.Node) *nodeInfo {
	info := c.infos[n]
	if info == nil {
		info = &nodeInfo{node: n}
		c.infos[n] = info
	}
	return info
}

func (c *checker) allowed(pos token.Pos) bool {
	p := c.pass.Fset.Position(pos)
	for _, d := range c.allows {
		if d.Suppresses(Name, p) {
			return true
		}
	}
	return false
}

func (c *checker) shortPos(pos token.Pos) string {
	p := c.pass.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// analyze collects the allocation sites and same-package callees of one
// node. Sites inside panic(...) arguments are skipped entirely: the
// path is terminal and its allocations are part of dying loudly.
func (c *checker) analyze(n *callgraph.Node) {
	info := c.info(n)
	body := n.Body()
	if body == nil || info.nilfast {
		return
	}
	info.callees = append(info.callees, n.Lits...)

	exempt := panicRanges(body, c.pass.TypesInfo)
	add := func(pos token.Pos, format string, args ...any) {
		for _, r := range exempt {
			if pos >= r[0] && pos < r[1] {
				return
			}
		}
		info.sites = append(info.sites, site{pos: pos, msg: fmt.Sprintf(format, args...)})
	}

	for _, e := range n.Calls {
		c.analyzeCall(info, e, add)
	}
	c.analyzeIntrinsics(n, body, add)
}

// panicRanges returns the source ranges of panic(...) argument lists.
func panicRanges(body *ast.BlockStmt, info *types.Info) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, isIdent := ast.Unparen(call.Fun).(*ast.Ident); isIdent {
			if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && b.Name() == "panic" {
				out = append(out, [2]token.Pos{call.Lparen, call.Rparen + 1})
				return false
			}
		}
		return true
	})
	return out
}

// analyzeCall classifies one call edge's allocation behavior.
func (c *checker) analyzeCall(info *nodeInfo, e callgraph.Edge, add func(token.Pos, string, ...any)) {
	call := e.Call
	switch e.Kind {
	case callgraph.Conversion:
		c.checkConversion(call, add)
		return
	case callgraph.Builtin:
		switch e.BuiltinName {
		case "append":
			add(call.Pos(), "append may grow its backing array")
		case "make":
			add(call.Pos(), "make allocates")
		case "new":
			add(call.Pos(), "new allocates")
		case "print", "println":
			add(call.Pos(), "%s allocates", e.BuiltinName)
		}
		return
	case callgraph.StaticLit:
		// The literal is already a callee via Node.Lits; its creation
		// cost is charged by the literal scan.
		break
	case callgraph.Static:
		fn := e.Callee
		if fn.Pkg() == c.pass.Pkg {
			if callee := c.graph.ByFn[fn]; callee != nil {
				info.callees = append(info.callees, callee)
			} else {
				add(call.Pos(), "calls %s which has no analyzable body", fn.Name())
			}
		} else {
			c.checkCrossPackage(call, fn, add)
		}
	case callgraph.DynamicInterface:
		name := "method"
		if e.Callee != nil {
			name = e.Callee.Name()
		}
		add(call.Pos(), "dynamic interface call %s cannot be proven allocation-free", name)
	case callgraph.DynamicFunc:
		add(call.Pos(), "dynamic function-value call cannot be proven allocation-free")
	}
	c.checkCallBoundary(call, add)
}

// checkCrossPackage resolves a call into another package through its
// hotalloc fact, falling back to the stdlib intrinsics table.
func (c *checker) checkCrossPackage(call *ast.CallExpr, fn *types.Func, add func(token.Pos, string, ...any)) {
	name := qualifiedName(fn)
	if strings.HasPrefix(fn.Pkg().Path(), "coolpim/") {
		var f Fact
		if !c.pass.ImportObjectFact(fn, &f) {
			add(call.Pos(), "calls %s which has no hotalloc fact (package not vetted in this pass?)", name)
			return
		}
		if f.Allocates {
			add(call.Pos(), "calls %s which allocates (%s)", name, f.Reason)
		}
		return
	}
	if intrinsicPkgs[fn.Pkg().Path()] || intrinsicFuncs[name] {
		return
	}
	add(call.Pos(), "calls %s, which is outside the allocation-free intrinsics table", name)
}

// qualifiedName renders pkg.Func or pkg.(Type).Method for diagnostics
// and intrinsic lookup.
func qualifiedName(fn *types.Func) string {
	pkg := fn.Pkg().Path()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named := analysis.Named(t); named != nil {
			return fmt.Sprintf("%s.(%s).%s", pkg, named.Obj().Name(), fn.Name())
		}
	}
	return pkg + "." + fn.Name()
}

// checkConversion flags allocating conversions: string <-> []byte/[]rune,
// integer -> string, and explicit boxing T -> interface.
func (c *checker) checkConversion(call *ast.CallExpr, add func(token.Pos, string, ...any)) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := c.pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	dst := tv.Type.Underlying()
	argTV := c.pass.TypesInfo.Types[call.Args[0]]
	if argTV.Value != nil {
		return // constant-folded conversions don't allocate at run time
	}
	src := argTV.Type
	if src == nil {
		return
	}
	srcU := src.Underlying()
	switch d := dst.(type) {
	case *types.Basic:
		if d.Info()&types.IsString == 0 {
			return
		}
		switch s := srcU.(type) {
		case *types.Slice:
			add(call.Pos(), "string conversion from a byte or rune slice allocates")
		case *types.Basic:
			if s.Info()&types.IsInteger != 0 {
				add(call.Pos(), "integer-to-string conversion allocates")
			}
		}
	case *types.Slice:
		if s, isBasic := srcU.(*types.Basic); isBasic && s.Info()&types.IsString != 0 {
			add(call.Pos(), "byte/rune slice conversion from a string allocates")
		}
	case *types.Interface:
		if !types.IsInterface(srcU) && !pointerShaped(src) {
			add(call.Pos(), "conversion to interface boxes a non-pointer value")
		}
	}
}

// checkCallBoundary flags interface boxing of arguments and variadic
// slice packing at one call site.
func (c *checker) checkCallBoundary(call *ast.CallExpr, add func(token.Pos, string, ...any)) {
	tv, ok := c.pass.TypesInfo.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	plen := params.Len()
	variadic := sig.Variadic() && call.Ellipsis == token.NoPos
	if variadic && len(call.Args) >= plen {
		add(call.Pos(), "call packs %d variadic argument(s) into a new slice", len(call.Args)-plen+1)
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < plen-1 || (!sig.Variadic() && i < plen):
			pt = params.At(i).Type()
		case sig.Variadic() && call.Ellipsis == token.NoPos:
			pt = params.At(plen - 1).Type().(*types.Slice).Elem()
		case sig.Variadic(): // f(xs...): the slice passes through
			pt = params.At(plen - 1).Type()
		default:
			continue
		}
		if _, isTP := pt.(*types.TypeParam); isTP {
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		atv := c.pass.TypesInfo.Types[arg]
		if atv.Type == nil || atv.Value != nil || atv.IsNil() {
			continue // constants use static interface data
		}
		at := atv.Type
		if types.IsInterface(at.Underlying()) || pointerShaped(at) {
			continue
		}
		add(arg.Pos(), "argument boxes a non-pointer value into an interface parameter")
	}
}

// pointerShaped reports whether values of t convert to an interface
// without allocating: pointers, maps, chans, funcs, unsafe pointers,
// and single-field structs/arrays wrapping one of those.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct:
		return u.NumFields() == 1 && pointerShaped(u.Field(0).Type())
	case *types.Array:
		return u.Len() == 1 && pointerShaped(u.Elem())
	}
	return false
}

// analyzeIntrinsics scans a body (excluding nested literals) for
// non-call allocation sites.
func (c *checker) analyzeIntrinsics(n *callgraph.Node, body *ast.BlockStmt, add func(token.Pos, string, ...any)) {
	info := c.pass.TypesInfo
	// Selector expressions in call-function position are calls, not
	// method values.
	callFuns := make(map[ast.Expr]bool)
	for _, e := range n.Calls {
		callFuns[ast.Unparen(e.Call.Fun)] = true
	}
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if caps := captureCount(x, info); caps > 0 {
				add(x.Pos(), "closure captures %d variable(s); its creation allocates", caps)
			}
			return false
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if t := info.Types[idx.X].Type; t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							add(lhs.Pos(), "map write may grow the map")
						}
					}
				}
			}
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 {
				if t := info.Types[x.Lhs[0]].Type; t != nil && isString(t) {
					add(x.Pos(), "string concatenation allocates")
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				tv := info.Types[x]
				if tv.Type != nil && isString(tv.Type) && tv.Value == nil {
					add(x.Pos(), "string concatenation allocates")
				}
			}
		case *ast.SelectorExpr:
			if callFuns[x] {
				return true
			}
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.MethodVal {
				add(x.Pos(), "method value %s.%s allocates a bound-method closure; cache it or call it directly", exprString(x.X), x.Sel.Name)
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, isLit := ast.Unparen(x.X).(*ast.CompositeLit); isLit {
					add(x.Pos(), "address of composite literal escapes to the heap")
				}
			}
		case *ast.CompositeLit:
			if t := info.Types[x].Type; t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					add(x.Pos(), "slice literal allocates its backing array")
				case *types.Map:
					add(x.Pos(), "map literal allocates")
				}
			}
		}
		return true
	})
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// captureCount counts the distinct variables a literal captures from
// enclosing scopes. A capture-free literal compiles to a plain function
// pointer and does not allocate.
func captureCount(lit *ast.FuncLit, info *types.Info) int {
	seen := make(map[*types.Var]bool)
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Package-level variables are accessed directly, not captured.
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true
		}
		// Declared inside the literal (params, locals): not a capture.
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true
		}
		seen[v] = true
		return true
	})
	return len(seen)
}

// exprString renders a short receiver expression for diagnostics.
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	}
	return "expr"
}
