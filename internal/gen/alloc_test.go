//go:build !race

// The race detector changes allocation counts, so this pin builds only
// without it.

package gen

import "testing"

// TestSyntheticAllocsPerXTuple bounds the heap objects SyntheticSized
// allocates per x-tuple, Build included. Each x-tuple costs a handful of
// objects: its name, one ID string, the pdf's bins and the database's
// per-x-tuple arena (see uncertain's newTuples). Formatting each of the
// ten tuple IDs separately adds ten more and fails the bound.
func TestSyntheticAllocsPerXTuple(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin; run without -short")
	}
	const m = 1000
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := SyntheticSized(m, 42); err != nil {
			t.Fatal(err)
		}
	})
	perX := allocs / m
	t.Logf("%.0f allocations, %.2f per x-tuple", allocs, perX)
	if perX > 12 {
		t.Errorf("%.2f heap objects per x-tuple, want <= 12", perX)
	}
}
