package lib_test

import (
	"testing"

	"exttest/lib"
	"exttest/other"
	"exttest/use"
)

// TestN uses export_test.go's method on a T built two imports away: the
// lint must type-check this unit against lib's test variant, with use and
// mid re-checked against it, as go vet and go test do.
func TestN(t *testing.T) {
	var x *lib.T = use.Make()
	if x.N() != other.Seven {
		t.Fatal(x.N())
	}
}
