package quality

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/probdb/topkclean/internal/topkq"
	"github.com/probdb/topkclean/internal/uncertain"
)

// headTailDB builds m x-tuples: head of them with four high-scoring
// alternatives each, where the top-k scan stops, and a long tail of
// low-scoring singletons (each with a null) it never reaches. The
// processed prefix depends only on the head, so databases of different m
// share it exactly.
func headTailDB(t testing.TB, head, m int) *uncertain.Database {
	t.Helper()
	db := uncertain.New()
	for g := 0; g < m; g++ {
		var ts []uncertain.Tuple
		if g < head {
			for a := 0; a < 4; a++ {
				ts = append(ts, uncertain.Tuple{
					ID:    fmt.Sprintf("h%d.%d", g, a),
					Attrs: []float64{1000 + float64((g*31+a*257)%997) + float64(g)/1e4},
					Prob:  0.25,
				})
			}
		} else {
			ts = []uncertain.Tuple{{ID: fmt.Sprintf("t%d", g), Attrs: []float64{-float64(g)}, Prob: 0.5}}
		}
		if err := db.AddXTuple(fmt.Sprintf("G%d", g), ts...); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Build(uncertain.ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestTPAllocsIndependentOfM pins TP's memory to the processed prefix.
// The dense evaluation allocated a length-m GroupGain vector and cleared a
// length-m scratch on every pass — 8 bytes per x-tuple allocated, ~700 KiB
// more at m = 10^5 than at m = 10^4. The sparse evaluation allocates the
// prefix's weights, one cell per scan slot and its non-zero gains only,
// so at an identical processed prefix the two sizes must allocate within
// a small constant of each other.
func TestTPAllocsIndependentOfM(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10^5-x-tuple database; run without -short")
	}
	if raceEnabled {
		t.Skip("allocation counts shift under the race detector")
	}
	const k = 10
	perTP := func(m int) (bytes float64, processed int) {
		db := headTailDB(t, 400, m)
		info, err := topkq.TopKProbabilities(db, k)
		if err != nil {
			t.Fatal(err)
		}
		tp := func() {
			if _, err := TPFromInfo(db, info); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			tp()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs, info.Processed
	}
	small, pSmall := perTP(10_000)
	large, pLarge := perTP(100_000)
	if pSmall != pLarge {
		t.Fatalf("processed prefixes differ: %d at m=10^4, %d at m=10^5", pSmall, pLarge)
	}
	if slack := 32 * 1024.0; large > small+slack {
		t.Fatalf("TP over %d positions allocates %.0f bytes at m=10^5 vs %.0f at m=10^4; want within %.0f",
			pLarge, large, small, slack)
	}
	t.Logf("TP over %d positions allocates %.0f bytes at m=10^4, %.0f at m=10^5", pLarge, small, large)
}

// insertTail appends one single-alternative x-tuple scored below every
// alternative of a headTailDB, so the processed prefix stays put.
func insertTail(t testing.TB, db *uncertain.Database) {
	t.Helper()
	g := db.NumGroups()
	if err := db.InsertXTuple(fmt.Sprintf("N%d", g),
		uncertain.Tuple{ID: fmt.Sprintf("n%d", g), Attrs: []float64{-float64(g)}, Prob: 0.5}); err != nil {
		t.Fatal(err)
	}
}

// TestTPAllocsIndependentOfGrowingM is TestTPAllocsIndependentOfM on a
// database that gains one x-tuple before every pass, with a collection
// between passes, as a serving daemon's heap sees them. A pooled
// group-keyed scratch sized to m would be too small for m+1 and
// reallocated (16·m bytes) on every pass; the slot-keyed cells are
// O(slots) whatever m is.
func TestTPAllocsIndependentOfGrowingM(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10^5-x-tuple database; run without -short")
	}
	if raceEnabled {
		t.Skip("allocation counts shift under the race detector")
	}
	const k = 10
	perTP := func(m int) (bytes float64, processed int) {
		db := headTailDB(t, 400, m)
		info, err := topkq.TopKProbabilities(db, k)
		if err != nil {
			t.Fatal(err)
		}
		const runs = 20
		var total uint64
		for i := 0; i < runs; i++ {
			v := db.Version()
			insertTail(t, db)
			wm, ok := db.DirtySince(v)
			if !ok {
				t.Fatal("DirtySince unanswerable")
			}
			if info, err = topkq.Resume(db, info, wm); err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := TPFromInfo(db, info)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			total += after.TotalAlloc - before.TotalAlloc
		}
		return float64(total) / runs, info.Processed
	}
	small, pSmall := perTP(10_000)
	large, pLarge := perTP(100_000)
	if pSmall != pLarge {
		t.Fatalf("processed prefixes differ: %d at m=10^4, %d at m=10^5", pSmall, pLarge)
	}
	if slack := 32 * 1024.0; large > small+slack {
		t.Fatalf("TP over %d positions with an insert before each allocates %.0f bytes at m=10^5 vs %.0f at m=10^4; want within %.0f",
			pLarge, large, small, slack)
	}
	t.Logf("TP over %d positions with an insert before each allocates %.0f bytes at m=10^4, %.0f at m=10^5", pLarge, small, large)
}
