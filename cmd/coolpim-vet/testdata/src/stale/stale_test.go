// Package stale is coolpim-vet testdata: a directory of test files
// only, holding a //coolpim:allow directive that suppresses nothing.
package stale

import "testing"

func TestAnswer(t *testing.T) {
	//coolpim:allow determinism this test reads no clock
	if 6*7 != 42 {
		t.Fail()
	}
}
