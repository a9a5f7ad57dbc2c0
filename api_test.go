package coolpim

import (
	"go/ast"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"coolpim/internal/analyzers/load"
)

// stdlibMethods are the standard-library interface methods the scan
// meets on internal types (fmt.Stringer, error, errors.Unwrap's
// interface, sort.Interface, heap.Interface, types.Importer): a method
// of one of these names serves the standard library, not a test.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true,
	"Push": true, "Pop": true, "Import": true,
}

// testOnlyAPI is the ratchet: every exported identifier under internal/
// that no non-test code of the module or of perfbench references. Only
// tests use them. Delete one, or move it beside its test, and drop it
// here; the list may only shrink.
var testOnlyAPI = []string{
	"internal/analyzers/analysistest.Run",
	"internal/cache.Cache.Config",
	"internal/cache.Cache.Contains",
	"internal/cache.Cache.ResidentLines",
	"internal/core.EstimatePIMRate",
	"internal/core.TokenPool.Issued",
	"internal/core.TokenPool.Stats",
	"internal/dram.Bank.Refresh",
	"internal/dram.Bank.Stats",
	"internal/experiments.CampaignSpec.CanonicalJSON",
	"internal/gpu.GPU.Policy",
	"internal/mem.AtomicNone",
	"internal/mem.Buffer.Contains",
	"internal/mem.Space.Buffers",
	"internal/mem.Space.PIMRegion",
	"internal/mem.Space.ReadU32",
	"internal/sim.Engine.After",
	"internal/sim.Engine.Every",
	"internal/sim.Engine.Run",
	"internal/simt.Ctx.TotalThreads",
	"internal/simt.FirstN",
	"internal/simt.Mask.Clear",
	"internal/simt.WarpRun.Done",
	"internal/telemetry.Counter.Value",
	"internal/telemetry.FlightRecorder.Seq",
	"internal/telemetry.Histogram.Count",
	"internal/telemetry.Histogram.Sum",
	"internal/thermal.Model.AddCellPower",
	"internal/thermal.Model.Reset",
	"internal/units.Celsius.Kelvin",
	"internal/units.FromKelvin",
	"internal/units.FromSeconds",
	"internal/units.Joule.Over",
}

// testOnlyFields is the same ratchet for the exported fields of
// exported structs under internal/ that no non-test code sets. Only
// tests set them. Delete one, or unexport it, and drop it here.
var testOnlyFields = []string{}

// TestNoTestOnlyAPI type-checks the module and perfbench from source,
// without test files, and reports every exported identifier declared
// under internal/ that nothing references: package-level names, and the
// exported methods of exported types. A method that satisfies an
// interface declared in the module, or a standard-library interface
// (stdlibMethods), is exempt, because calls through the interface do not
// name it. So are the methods of unexported types. It also reports every
// exported field of an exported struct that nothing sets (setFields).
// The reports must equal testOnlyAPI and testOnlyFields: a new name
// fails, and so does a listed name that gained a product reference or
// no longer exists.
func TestNoTestOnlyAPI(t *testing.T) {
	l, err := load.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*load.Package
	seen := map[string]bool{}
	err = filepath.WalkDir(l.ModRoot(), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || name == "bin" || (strings.HasPrefix(name, ".") && path != l.ModRoot()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		// perfbench is a module of its own, loaded here as coolpim/perfbench.
		rel, err := filepath.Rel(l.ModRoot(), filepath.Dir(path))
		if err != nil {
			return err
		}
		importPath := l.ModPath() + "/" + filepath.ToSlash(rel)
		if seen[importPath] {
			return nil
		}
		seen[importPath] = true
		p, err := l.Load(importPath)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	used := map[types.Object]bool{}
	set := map[types.Object]bool{}
	var ifaces []*types.Interface
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			used[origin(obj)] = true
		}
		setFields(p, set)
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}

	var got, gotFields []string
	for _, p := range pkgs {
		rel := strings.TrimPrefix(p.Path, l.ModPath()+"/")
		if !strings.HasPrefix(rel, "internal/") {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if !used[obj] {
				got = append(got, rel+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && !set[f] {
						gotFields = append(gotFields, rel+"."+name+"."+f.Name())
					}
				}
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !stdlibMethods[m.Name()] && !satisfiesInterface(named, m.Name(), ifaces) {
					got = append(got, rel+"."+name+"."+m.Name())
				}
			}
		}
	}

	ratchet(t, "testOnlyAPI", got, testOnlyAPI, "is exported but only tests use it: delete it, or move it beside its test")
	ratchet(t, "testOnlyFields", gotFields, testOnlyFields, "is exported but only tests set it: delete it, or unexport it")
	t.Logf("%d packages scanned, %d test-only exports, %d test-only fields", len(pkgs), len(got), len(gotFields))
}

// ratchet fails for each name in got that list lacks, with hint, and
// for each listed name that got lacks.
func ratchet(t *testing.T, listName string, got, list []string, hint string) {
	t.Helper()
	listed := map[string]bool{}
	for _, name := range list {
		listed[name] = true
	}
	for _, name := range got {
		if !listed[name] {
			t.Errorf("%s %s", name, hint)
		}
		delete(listed, name)
	}
	for _, name := range list {
		if listed[name] {
			t.Errorf("%s is listed in %s but gained a product reference or no longer exists: drop it from the list", name, listName)
		}
	}
	if !slices.IsSorted(list) {
		t.Errorf("%s is not sorted", listName)
	}
}

// setFields records in set every struct field that p's code sets: the
// target of an assignment or ++/--, an operand of &, and every field a
// keyed or positional composite literal fills. A field reached through
// index expressions and selectors on the way counts as set too, so
// `x.F[i].G = v` sets G and F.
func setFields(p *load.Package, set map[types.Object]bool) {
	mark := func(e ast.Expr) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				if sel := p.Info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					set[origin(sel.Obj())] = true
				}
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return
			}
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					mark(lhs)
				}
			case *ast.IncDecStmt:
				mark(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					mark(n.X)
				}
			case *ast.CompositeLit:
				t := p.Info.TypeOf(n)
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						set[origin(p.Info.Uses[kv.Key.(*ast.Ident)])] = true
					} else {
						set[origin(st.Field(i))] = true
					}
				}
			}
			return true
		})
	}
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// satisfiesInterface reports whether named, or a pointer to it,
// implements one of ifaces through its method called method.
func satisfiesInterface(named *types.Named, method string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			has = has || it.Method(i).Name() == method
		}
		if has && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}
