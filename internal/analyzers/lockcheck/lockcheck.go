// Package lockcheck defines the coolpim-vet analyzer that turns the
// repository's documented locking conventions into machine-checked
// rules:
//
//   - A struct field annotated `//coolpim:guard mu` (or with prose
//     `guarded by mu` in its comment) may only be read or written while
//     the sibling mutex field mu is held along every intra-function
//     path. Lock/RLock add the mutex to the lexical held set, Unlock
//     and RUnlock remove it, and `defer mu.Unlock()` holds it to the
//     end of the function. Function literals are analyzed as separate
//     bodies with an empty held set — a closure may run on any
//     goroutine.
//   - A function annotated `//coolpim:locked mu` documents that callers
//     hold the receiver's mu; its body starts with the mutex held.
//   - A plain int field whose address is passed to sync/atomic
//     functions must never also be accessed non-atomically: the mix is
//     a data race even when one side "only reads".
//   - A value loaded from (or stored into) an atomic.Pointer is a
//     published immutable snapshot; assigning through it races with
//     every reader.
//
// Constructor bodies are exempt where the base variable is a local
// freshly initialized from a composite literal or new() — the value is
// unpublished, so no lock can or need be held.
//
// The analysis is lexical, not flow-sensitive: a mutex locked inside a
// branch is considered held only inside that branch. This matches the
// repository's locking style (lock at method entry, defer unlock) and
// keeps the checker predictable; genuinely cleverer code documents
// itself with a line-scoped //coolpim:allow lockcheck escape.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"coolpim/internal/analyzers/analysis"
)

// Name is the analyzer's name, as used in //coolpim:allow directives.
const Name = "lockcheck"

// Analyzer is the lockcheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: Name,
	Doc: "enforce guarded-by field annotations, atomic-vs-plain access " +
		"discipline, and atomic.Pointer snapshot immutability",
	Run: run,
}

// GuardPrefix is the directive comment (after //) naming a field's
// guarding mutex.
const GuardPrefix = "coolpim:guard"

// LockedPrefix is the directive comment (after //) documenting that a
// function's callers hold the receiver's named mutex.
const LockedPrefix = "coolpim:locked"

const scope = "coolpim/internal/"

// guard records that a field must only be accessed with its sibling
// mutex held.
type guard struct {
	muName string
}

type checker struct {
	pass *analysis.Pass
	// guards maps field objects to their guarding mutex.
	guards map[*types.Var]guard
	// atomicFields maps plain fields whose address reaches sync/atomic
	// calls; sanctioned holds the selector nodes inside those calls.
	atomicFields map[*types.Var]bool
	sanctioned   map[*ast.SelectorExpr]bool
	// locked maps function declarations to the mutex names their
	// callers hold (from //coolpim:locked).
	locked map[*ast.FuncDecl][]string
}

func run(pass *analysis.Pass) error {
	if !strings.HasPrefix(pass.Pkg.Path(), scope) {
		return nil
	}
	files := pass.Files
	c := &checker{
		pass:         pass,
		guards:       make(map[*types.Var]guard),
		atomicFields: make(map[*types.Var]bool),
		sanctioned:   make(map[*ast.SelectorExpr]bool),
		locked:       make(map[*ast.FuncDecl][]string),
	}
	for _, f := range files {
		c.collectGuards(f)
	}
	c.collectLocked(files)
	for _, f := range files {
		c.collectAtomicFields(f)
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkFunc(fd)
			}
		}
	}
	return nil
}

// collectGuards parses field guard annotations out of struct types.
func (c *checker) collectGuards(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		fieldNames := make(map[string]types.Type)
		for _, fld := range st.Fields.List {
			t := c.pass.TypesInfo.Types[fld.Type].Type
			for _, name := range fld.Names {
				fieldNames[name.Name] = t
			}
		}
		for _, fld := range st.Fields.List {
			muName, dirPos, ok := guardDirective(fld)
			if !ok {
				continue
			}
			if len(fld.Names) == 0 {
				c.pass.Reportf(dirPos, "//%s on an embedded field is not supported; name the field", GuardPrefix)
				continue
			}
			mt, exists := fieldNames[muName]
			if !exists {
				c.pass.Reportf(dirPos, "guard names %q, which is not a field of this struct", muName)
				continue
			}
			if !isMutexType(mt) {
				c.pass.Reportf(dirPos, "guard field %q is not a sync.Mutex or sync.RWMutex", muName)
				continue
			}
			for _, name := range fld.Names {
				if v, isVar := c.pass.TypesInfo.Defs[name].(*types.Var); isVar {
					c.guards[v] = guard{muName: muName}
				}
			}
		}
		return true
	})
}

// guardDirective extracts the mutex name from a field's doc or line
// comment: `//coolpim:guard mu` or prose containing `guarded by mu`.
func guardDirective(fld *ast.Field) (string, token.Pos, bool) {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		for _, cm := range cg.List {
			if rest, ok := strings.CutPrefix(cm.Text, "//"+GuardPrefix); ok {
				name := firstToken(rest)
				return name, cm.Pos(), true
			}
			if i := strings.Index(cm.Text, "guarded by "); i >= 0 {
				name := firstToken(cm.Text[i+len("guarded by "):])
				if name != "" {
					return name, cm.Pos(), true
				}
			}
		}
	}
	return "", token.NoPos, false
}

// firstToken returns the first whitespace-separated token of s, with
// trailing punctuation stripped.
func firstToken(s string) string {
	fs := strings.Fields(s)
	if len(fs) == 0 {
		return ""
	}
	return strings.TrimRight(fs[0], ".,;:")
}

func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named := analysis.Named(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// collectLocked parses //coolpim:locked directives and attaches each to
// the function declared on its target line (own line when code shares
// it, next line otherwise).
func (c *checker) collectLocked(files []*ast.File) {
	for _, f := range files {
		declAtLine := make(map[int]*ast.FuncDecl)
		codeLines := make(map[int]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case nil, *ast.Comment, *ast.CommentGroup:
				return n == nil
			}
			if fd, ok := n.(*ast.FuncDecl); ok {
				declAtLine[c.pass.Fset.Position(fd.Pos()).Line] = fd
			}
			codeLines[c.pass.Fset.Position(n.Pos()).Line] = true
			return true
		})
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				rest, ok := strings.CutPrefix(cm.Text, "//"+LockedPrefix)
				if !ok {
					continue
				}
				muName := firstToken(rest)
				if muName == "" || strings.HasPrefix(muName, "//") {
					c.pass.Reportf(cm.Pos(), "//%s directive names no mutex; write //%s <mutexField>", LockedPrefix, LockedPrefix)
					continue
				}
				pos := c.pass.Fset.Position(cm.Pos())
				target := pos.Line
				if !codeLines[target] {
					target++
				}
				fd := declAtLine[target]
				if fd == nil {
					c.pass.Reportf(cm.Pos(), "//%s directive attaches to no function: nothing starts on line %d", LockedPrefix, target)
					continue
				}
				if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
					c.pass.Reportf(cm.Pos(), "//%s requires a method with a named receiver", LockedPrefix)
					continue
				}
				c.locked[fd] = append(c.locked[fd], muName)
			}
		}
	}
}

// collectAtomicFields records every field whose address is passed to a
// sync/atomic function, and the exact selector nodes so those sanctioned
// accesses are not themselves flagged.
func (c *checker) collectAtomicFields(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(c.pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
			return true
		}
		for _, arg := range call.Args {
			un, isUnary := ast.Unparen(arg).(*ast.UnaryExpr)
			if !isUnary || un.Op != token.AND {
				continue
			}
			sel, isSel := ast.Unparen(un.X).(*ast.SelectorExpr)
			if !isSel {
				continue
			}
			if s, hasSel := c.pass.TypesInfo.Selections[sel]; hasSel && s.Kind() == types.FieldVal {
				if v, isVar := s.Obj().(*types.Var); isVar {
					c.atomicFields[v] = true
					c.sanctioned[sel] = true
				}
			}
		}
		return true
	})
}

// funcChecker walks one body with a lexical held set.
type funcChecker struct {
	c *checker
	// exempt holds local variables freshly initialized from composite
	// literals or new(): unpublished values no lock protects yet.
	exempt map[*types.Var]bool
	// snapshots holds locals assigned from atomic.Pointer Load calls.
	snapshots map[*types.Var]bool
}

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	held := make(map[string]bool)
	for _, mu := range c.locked[fd] {
		recv := fd.Recv.List[0].Names[0].Name
		held[recv+"."+mu] = true
	}
	fc := &funcChecker{c: c, exempt: make(map[*types.Var]bool), snapshots: make(map[*types.Var]bool)}
	fc.stmts(fd.Body.List, held)
}

// checkLit analyzes a function literal as its own body: closures may
// run on any goroutine, so they start with nothing held.
func (c *checker) checkLit(lit *ast.FuncLit) {
	fc := &funcChecker{c: c, exempt: make(map[*types.Var]bool), snapshots: make(map[*types.Var]bool)}
	fc.stmts(lit.Body.List, make(map[string]bool))
}

func clone(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

type lockOpKind int

const (
	opNone lockOpKind = iota
	opLock
	opUnlock
)

// lockOp classifies a call as Lock/RLock or Unlock/RUnlock on a
// renderable mutex path.
func (fc *funcChecker) lockOp(e ast.Expr) (string, lockOpKind) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", opNone
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", opNone
	}
	var kind lockOpKind
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = opLock
	case "Unlock", "RUnlock":
		kind = opUnlock
	default:
		return "", opNone
	}
	recvT := fc.c.pass.TypesInfo.Types[sel.X].Type
	if !isMutexType(recvT) {
		return "", opNone
	}
	path, ok := render(sel.X)
	if !ok {
		return "", opNone
	}
	return path, kind
}

// render flattens an ident/selector chain to its dotted path, seeing
// through parens and derefs. Non-path expressions (calls, indexes) are
// not renderable.
func render(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.SelectorExpr:
		base, ok := render(e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	case *ast.ParenExpr:
		return render(e.X)
	case *ast.StarExpr:
		return render(e.X)
	}
	return "", false
}

// rootVar resolves the leftmost identifier of a path to its variable.
func (fc *funcChecker) rootVar(e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			v, _ := fc.c.pass.TypesInfo.Uses[x].(*types.Var)
			return v
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func (fc *funcChecker) stmts(list []ast.Stmt, held map[string]bool) {
	for _, s := range list {
		fc.stmt(s, held)
	}
}

func (fc *funcChecker) stmt(s ast.Stmt, held map[string]bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if path, kind := fc.lockOp(s.X); kind != opNone {
			if kind == opLock {
				held[path] = true
			} else {
				delete(held, path)
			}
			return
		}
		fc.expr(s.X, held)
	case *ast.DeferStmt:
		if _, kind := fc.lockOp(s.Call); kind != opNone {
			// defer mu.Unlock() holds to function end: no change.
			// defer mu.Lock() is nonsense; also no change.
			return
		}
		fc.expr(s.Call, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			fc.expr(e, held)
		}
		for _, e := range s.Lhs {
			fc.checkSnapshotWrite(e)
			fc.expr(e, held)
		}
		fc.recordLocals(s)
	case *ast.IncDecStmt:
		fc.checkSnapshotWrite(s.X)
		fc.expr(s.X, held)
	case *ast.IfStmt:
		h := clone(held)
		if s.Init != nil {
			fc.stmt(s.Init, h)
		}
		fc.expr(s.Cond, h)
		fc.stmts(s.Body.List, clone(h))
		if s.Else != nil {
			fc.stmt(s.Else, clone(h))
		}
	case *ast.ForStmt:
		h := clone(held)
		if s.Init != nil {
			fc.stmt(s.Init, h)
		}
		if s.Cond != nil {
			fc.expr(s.Cond, h)
		}
		if s.Post != nil {
			fc.stmt(s.Post, h)
		}
		fc.stmts(s.Body.List, h)
	case *ast.RangeStmt:
		h := clone(held)
		fc.expr(s.X, h)
		fc.stmts(s.Body.List, h)
	case *ast.SwitchStmt:
		h := clone(held)
		if s.Init != nil {
			fc.stmt(s.Init, h)
		}
		if s.Tag != nil {
			fc.expr(s.Tag, h)
		}
		for _, cs := range s.Body.List {
			if cc, ok := cs.(*ast.CaseClause); ok {
				hc := clone(h)
				for _, e := range cc.List {
					fc.expr(e, hc)
				}
				fc.stmts(cc.Body, hc)
			}
		}
	case *ast.TypeSwitchStmt:
		h := clone(held)
		if s.Init != nil {
			fc.stmt(s.Init, h)
		}
		fc.stmt(s.Assign, h)
		for _, cs := range s.Body.List {
			if cc, ok := cs.(*ast.CaseClause); ok {
				fc.stmts(cc.Body, clone(h))
			}
		}
	case *ast.SelectStmt:
		for _, cs := range s.Body.List {
			if cc, ok := cs.(*ast.CommClause); ok {
				hc := clone(held)
				if cc.Comm != nil {
					fc.stmt(cc.Comm, hc)
				}
				fc.stmts(cc.Body, hc)
			}
		}
	case *ast.BlockStmt:
		fc.stmts(s.List, clone(held))
	case *ast.GoStmt:
		fc.expr(s.Call, held)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			fc.expr(e, held)
		}
	case *ast.SendStmt:
		fc.expr(s.Chan, held)
		fc.expr(s.Value, held)
	case *ast.LabeledStmt:
		fc.stmt(s.Stmt, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, isVal := spec.(*ast.ValueSpec); isVal {
					for _, v := range vs.Values {
						fc.expr(v, held)
					}
				}
			}
		}
	}
}

// recordLocals marks constructor-fresh locals and atomic.Pointer
// snapshot locals from one assignment.
func (fc *funcChecker) recordLocals(s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, lhs := range s.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		var v *types.Var
		if s.Tok == token.DEFINE {
			v, _ = fc.c.pass.TypesInfo.Defs[id].(*types.Var)
		} else {
			v, _ = fc.c.pass.TypesInfo.Uses[id].(*types.Var)
		}
		if v == nil {
			continue
		}
		rhs := ast.Unparen(s.Rhs[i])
		if isFreshValue(rhs, fc.c.pass.TypesInfo) {
			fc.exempt[v] = true
		}
		if fc.isPointerLoad(rhs) {
			fc.snapshots[v] = true
		}
	}
}

// isFreshValue reports whether e constructs a brand-new unpublished
// value: T{...}, &T{...}, or new(T).
func isFreshValue(e ast.Expr, info *types.Info) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return false
		}
		_, isLit := ast.Unparen(e.X).(*ast.CompositeLit)
		return isLit
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, isB := info.Uses[id].(*types.Builtin); isB && b.Name() == "new" {
				return true
			}
		}
	}
	return false
}

// isPointerLoad reports whether e is a Load() call on an atomic.Pointer.
func (fc *funcChecker) isPointerLoad(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Load" {
		return false
	}
	t := fc.c.pass.TypesInfo.Types[sel.X].Type
	if t == nil {
		return false
	}
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named := analysis.Named(t)
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync/atomic" && named.Obj().Name() == "Pointer"
}

// checkSnapshotWrite flags assignments through an atomic.Pointer
// snapshot: either directly via X.Load().f = v or through a local that
// holds a loaded snapshot.
func (fc *funcChecker) checkSnapshotWrite(lhs ast.Expr) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if fc.isPointerLoad(sel.X) {
		fc.c.pass.Reportf(lhs.Pos(), "assignment through atomic.Pointer Load(): published snapshots are immutable; build a new value and Store it")
		return
	}
	if root := fc.rootVar(sel.X); root != nil && fc.snapshots[root] {
		fc.c.pass.Reportf(lhs.Pos(), "assignment mutates %s, a snapshot loaded from an atomic.Pointer; published snapshots are immutable", root.Name())
	}
}

// expr checks field accesses within one expression. Function literals
// are analyzed as their own bodies.
func (fc *funcChecker) expr(e ast.Expr, held map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			fc.c.checkLit(n)
			return false
		case *ast.SelectorExpr:
			fc.checkAccess(n, held)
		}
		return true
	})
}

// checkAccess applies the guarded-field and atomic-vs-plain rules to
// one selector.
func (fc *funcChecker) checkAccess(sel *ast.SelectorExpr, held map[string]bool) {
	s, ok := fc.c.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	v, ok := s.Obj().(*types.Var)
	if !ok {
		return
	}
	if root := fc.rootVar(sel.X); root != nil && fc.exempt[root] {
		return
	}
	if fc.c.atomicFields[v] && !fc.c.sanctioned[sel] {
		fc.c.pass.Reportf(sel.Pos(), "field %s is accessed via sync/atomic elsewhere in this package; this plain access races with those atomic operations", v.Name())
	}
	g, guarded := fc.c.guards[v]
	if !guarded {
		return
	}
	base, ok := render(sel.X)
	if !ok {
		fc.c.pass.Reportf(sel.Pos(), "field %s is guarded by %s, but the access path cannot be traced to a mutex; hold the guard or simplify the expression", v.Name(), g.muName)
		return
	}
	if !held[base+"."+g.muName] {
		fc.c.pass.Reportf(sel.Pos(), "field %s is guarded by %s; access without %s.%s held", v.Name(), g.muName, base, g.muName)
	}
}
