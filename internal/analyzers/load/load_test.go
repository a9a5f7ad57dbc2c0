package load

import (
	"go/types"
	"testing"
)

// TestStdImportOutsideModule loads an overlay package that imports a
// standard package outside the set the module's own packages import:
// its export data must still be found.
func TestStdImportOutsideModule(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	l.Overlay("coolpim/internal/pngonly", "testdata/src/pngonly")
	p, err := l.Load("coolpim/internal/pngonly")
	if err != nil {
		t.Fatal(err)
	}
	var decode *types.Func
	for id, obj := range p.Info.Uses {
		if id.Name == "Decode" && obj.Pkg() != nil && obj.Pkg().Path() == "image/png" {
			decode, _ = obj.(*types.Func)
		}
	}
	if decode == nil {
		t.Fatal("png.Decode did not resolve to image/png")
	}
}
