package topkq

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/probdb/topkclean/internal/uncertain"
)

// headTailDB builds a database of m x-tuples whose top of the rank order
// is the same whatever m is: head x-tuples of four equally likely
// alternatives (total mass 1, so they fill Lemma 2's fullGroups), their
// scores interleaved so that each completes only late in the head, above
// m-head single-alternative x-tuples scored below every head alternative.
// A scan of it processes the same prefix for every m ≥ head.
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

// TestResumeRhoAllocsPerInterval pins the U-kRanks cells and the
// checkpoints' F: a resume that rescans R positions with rank
// probabilities retained allocates at most a few times per checkpoint
// interval, never once per position. The cells and the Fs each come from
// one slice per pass, so the count does not grow with R at all.
func TestResumeRhoAllocsPerInterval(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts shift under the race detector")
	}
	const k = 10
	db := headTailDB(t, 600, 1000)
	prior, err := RankProbabilities(db, k)
	if err != nil {
		t.Fatal(err)
	}
	R := prior.Processed
	if R < 20*checkpointEvery {
		t.Fatalf("scan processes %d positions, want at least %d", R, 20*checkpointEvery)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Resume(db, prior, 0); err != nil {
			t.Fatal(err)
		}
	})
	// The info, its presized TopK, write-log, slot-table, cell and
	// checkpoint slices, the F slab and the lazy Rho table's guard.
	if limit := float64(3*R/checkpointEvery + 40); allocs > limit {
		t.Fatalf("resume over %d positions allocates %.0f times, want <= %.0f", R, allocs, limit)
	}
}

// TestResumeRhoBytesPerPosition pins what a rank-probability pass keeps
// per position: a resume that rescans a 10⁵-x-tuple database's prefix
// from position 0 at k = 15 allocates at most 64 bytes per processed
// position. The prefix copies, the write log and TopK take 28; the
// U-kRanks cells k·16 bytes per 64 positions. Keeping every rho_i(h)
// would add k·8 = 120 bytes per position. The test runs on one P, so
// every rescan finds its pooled scan state.
func TestResumeRhoBytesPerPosition(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10^5-x-tuple database; run without -short")
	}
	if raceEnabled {
		t.Skip("allocation counts shift under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const k = 15
	db := headTailDB(t, 1000, 100_000)
	prior, err := RankProbabilities(db, k)
	if err != nil {
		t.Fatal(err)
	}
	if prior.Processed < 40*checkpointEvery {
		t.Fatalf("scan processes %d positions, want at least %d", prior.Processed, 40*checkpointEvery)
	}
	resume := func() {
		if _, err := Resume(db, prior, 0); err != nil {
			t.Fatal(err)
		}
	}
	resume() // warm the state pool
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		resume()
	}
	runtime.ReadMemStats(&after)
	perPos := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(prior.Processed)
	if perPos > 64 {
		t.Fatalf("a rank-probability resume over %d positions allocates %.1f B per position, want <= 64", prior.Processed, perPos)
	}
	t.Logf("a rank-probability resume over %d positions allocates %.1f B per position", prior.Processed, perPos)
}

// TestResumeAllocsIndependentOfM pins O(active) scan state: a resume that
// rescans the same prefix of a 10^4- and a 10^5-x-tuple database
// allocates about the same bytes. A scan state with a dense per-group q
// would allocate at least 8·m bytes more on the larger one.
func TestResumeAllocsIndependentOfM(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10^5-x-tuple database; run without -short")
	}
	if raceEnabled {
		t.Skip("allocation counts shift under the race detector")
	}
	const k = 10
	perResume := func(m int) (bytes float64, processed int) {
		db := headTailDB(t, 400, m)
		prior, err := TopKProbabilities(db, k)
		if err != nil {
			t.Fatal(err)
		}
		resume := func() {
			if _, err := Resume(db, prior, 0); err != nil {
				t.Fatal(err)
			}
		}
		resume() // warm the state pool
		const runs = 50
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			resume()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs, prior.Processed
	}
	small, pSmall := perResume(10_000)
	large, pLarge := perResume(100_000)
	if pSmall != pLarge {
		t.Fatalf("processed prefixes differ: %d at m=10^4, %d at m=10^5", pSmall, pLarge)
	}
	if slack := 32 * 1024.0; large > small+slack {
		t.Fatalf("resume over %d positions allocates %.0f bytes at m=10^5 vs %.0f at m=10^4; want within %.0f",
			pLarge, large, small, slack)
	}
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

// TestResumeAllocsIndependentOfGrowingM is TestResumeAllocsIndependentOfM
// on a database that gains one x-tuple before every rescan, with a
// collection between rescans, as a serving daemon's heap sees them. A
// group→slot index sized to exactly m would be too small for m+1 and
// reallocated (4·m bytes) on every rescan; the geometric growth
// reallocates it once per m/4 inserts. The test runs on one P: a collection moves the
// pool's states to its victim cache, and a Get on another P than the
// Put's cannot reach that P's private victim, so with more Ps the hit
// rate after a collection (and with it the bytes) would vary from run to
// run.
func TestResumeAllocsIndependentOfGrowingM(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10^5-x-tuple database; run without -short")
	}
	if raceEnabled {
		t.Skip("allocation counts shift under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const k = 10
	perResume := func(m int) (bytes float64, processed int) {
		db := headTailDB(t, 400, m)
		prior, err := TopKProbabilities(db, k)
		if err != nil {
			t.Fatal(err)
		}
		resume := func() *RankInfo {
			info, err := Resume(db, prior, 0)
			if err != nil {
				t.Fatal(err)
			}
			return info
		}
		resume() // warm the state pool
		const runs = 20
		var total uint64
		for i := 0; i < runs; i++ {
			insertTail(t, db)
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			info := resume()
			runtime.ReadMemStats(&after)
			total += after.TotalAlloc - before.TotalAlloc
			if info.Processed != prior.Processed {
				t.Fatalf("m=%d, insert %d: processed %d, want %d", m, i, info.Processed, prior.Processed)
			}
		}
		return float64(total) / runs, prior.Processed
	}
	small, pSmall := perResume(10_000)
	large, pLarge := perResume(100_000)
	if pSmall != pLarge {
		t.Fatalf("processed prefixes differ: %d at m=10^4, %d at m=10^5", pSmall, pLarge)
	}
	if slack := 32 * 1024.0; large > small+slack {
		t.Fatalf("resume over %d positions with an insert before each allocates %.0f bytes at m=10^5 vs %.0f at m=10^4; want within %.0f",
			pLarge, large, small, slack)
	}
	t.Logf("resume over %d positions with an insert before each allocates %.0f bytes at m=10^4, %.0f at m=10^5", pLarge, small, large)
}

// TestResumeBytesLinearInPrefix pins the scan memo as linear in the
// processed prefix: a rescan from position 0 over four times the prefix
// (with about four times the active x-tuples) allocates at most 1.5 times
// the bytes per position. Checkpoints that copied every active slot's
// state would grow the per-position cost with the active count.
func TestResumeBytesLinearInPrefix(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts shift under the race detector")
	}
	const k = 10
	perPosition := func(head int) float64 {
		db := headTailDB(t, head, head)
		prior, err := TopKProbabilities(db, k)
		if err != nil {
			t.Fatal(err)
		}
		resume := func() {
			if _, err := Resume(db, prior, 0); err != nil {
				t.Fatal(err)
			}
		}
		resume() // warm the state pool
		const runs = 20
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			resume()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(prior.Processed)
	}
	small, large := perPosition(400), perPosition(1600)
	if large > 1.5*small {
		t.Fatalf("resume allocates %.1f B per position at 4x the prefix vs %.1f at 1x; want <= 1.5x", large, small)
	}
}
