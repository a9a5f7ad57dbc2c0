// Package facts is the cross-package fact store behind the analysis
// framework's ExportObjectFact/ImportObjectFact API. Facts computed
// while analyzing one package (say, internal/sim) stay in memory and are
// imported when a dependent package (internal/system) is analyzed later
// in the same sweep. One sweep loads every package through one
// load.Loader, so a dependent package sees the very types.Object its
// dependency exported a fact about, and the store keys facts by it.
package facts

import (
	"go/types"
	"reflect"

	"coolpim/internal/analyzers/analysis"
)

// Store holds facts keyed by (analyzer, object, fact type). It is not
// safe for concurrent use.
type Store struct {
	data map[key]analysis.Fact
}

type key struct {
	analyzer string
	obj      *types.Func
	typ      reflect.Type
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{data: make(map[key]analysis.Fact)}
}

// keyFor returns the key of a fact about obj, or ok=false for objects
// facts cannot attach to (anything but a function or method) and for
// non-pointer facts. Generic instantiations share their origin's facts.
func keyFor(analyzer string, obj types.Object, fact analysis.Fact) (key, bool) {
	fn, ok := obj.(*types.Func)
	t := reflect.TypeOf(fact)
	if !ok || t == nil || t.Kind() != reflect.Pointer {
		return key{}, false
	}
	return key{analyzer, fn.Origin(), t}, true
}

// Export records a fact about obj under the analyzer's name,
// overwriting any previous fact of the same type for the object.
func (s *Store) Export(analyzer string, obj types.Object, fact analysis.Fact) {
	k, ok := keyFor(analyzer, obj, fact)
	if !ok {
		return
	}
	// Store a copy so later mutation of the analyzer's value cannot
	// change what dependents import.
	cp := reflect.New(k.typ.Elem())
	cp.Elem().Set(reflect.ValueOf(fact).Elem())
	s.data[k] = cp.Interface().(analysis.Fact)
}

// Import copies the stored fact for obj (if any) into fact and reports
// whether one existed. fact's dynamic type selects which fact is read.
func (s *Store) Import(analyzer string, obj types.Object, fact analysis.Fact) bool {
	k, ok := keyFor(analyzer, obj, fact)
	if !ok {
		return false
	}
	stored, ok := s.data[k]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}
