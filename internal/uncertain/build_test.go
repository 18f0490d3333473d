package uncertain_test

import (
	"fmt"
	"testing"

	"github.com/probdb/topkclean/internal/gen"
	"github.com/probdb/topkclean/internal/uncertain"
)

// TestBuildOrderMatchesStableSortSynthetic checks Build's rank order
// against the stable-sort reference on the paper's synthetic database at
// 10^4 x-tuples, position for position.
func TestBuildOrderMatchesStableSortSynthetic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10^4-x-tuple database; run without -short")
	}
	db, err := gen.SyntheticSized(10_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	got, want := db.Sorted(), uncertain.StableRankOrder(db)
	if len(got) != len(want) {
		t.Fatalf("Sorted has %d tuples, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("position %d: Build placed %v, stable sort %v", i, got[i], want[i])
		}
	}
}

// stageCopy re-stages the real alternatives of a built database into a
// fresh unbuilt one, in the same group and tuple order.
func stageCopy(b *testing.B, src *uncertain.Database) *uncertain.Database {
	db := uncertain.New()
	var ts []uncertain.Tuple
	for _, x := range src.Groups() {
		ts = ts[:0]
		for _, t := range x.RealTuples() {
			ts = append(ts, uncertain.Tuple{ID: t.ID, Attrs: t.Attrs, Prob: t.Prob})
		}
		if err := db.AddXTuple(x.Name, ts...); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkBuild times Database.Build alone on the paper's synthetic data
// (ten alternatives per x-tuple): validation, the ID index, scoring, null
// materialization, the rank-order sort and the chunked rank store.
// Staging each iteration's copy runs outside the timer and the allocation
// counts.
func BenchmarkBuild(b *testing.B) {
	for _, m := range []int{10_000, 100_000} {
		src, err := gen.SyntheticSized(m, 42)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := stageCopy(b, src)
				b.StartTimer()
				if err := db.Build(uncertain.ByFirstAttr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
