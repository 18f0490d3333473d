package uncertain_test

import (
	"runtime"
	"testing"
	"unsafe"

	"github.com/probdb/topkclean/internal/gen"
	"github.com/probdb/topkclean/internal/uncertain"
)

// TestTupleStoreHeapPerTuple pins the live heap a built database holds
// per tuple. Each x-tuple keeps its alternatives in one slab of 88-byte
// tuples, with their IDs and attribute vectors carved from one string and
// one []float64, and the writer's ID index is one pointer per slot: the
// paper's synthetic database holds ~156 bytes and ~0.6 heap objects per
// tuple at 10^4 x-tuples. With a map ID index, 96-byte tuples and an ID
// string and attribute slice per tuple it held ~189 bytes and ~1.9
// objects; both bounds below fail that layout.
func TestTupleStoreHeapPerTuple(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10^4-x-tuple database; run without -short")
	}
	if uncertain.RaceEnabled {
		t.Skip("heap sizes shift under the race detector")
	}
	if size := unsafe.Sizeof(uncertain.Tuple{}); size > 88 {
		t.Fatalf("Tuple is %d bytes, want <= 88 (a 10-alternative slab must fit the 896-byte size class)", size)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db, err := gen.SyntheticSized(10_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	n := float64(db.NumTuples())
	bytes := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	objects := float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / n
	runtime.KeepAlive(db)
	t.Logf("%.0f tuples: %.1f live bytes and %.2f heap objects per tuple", n, bytes, objects)
	if bytes > 170 {
		t.Errorf("%.1f live bytes per tuple, want <= 170", bytes)
	}
	if objects > 1 {
		t.Errorf("%.2f heap objects per tuple, want <= 1", objects)
	}
}
