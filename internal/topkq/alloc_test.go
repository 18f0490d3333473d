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
func headTailDB(t *testing.T, head, m int) *uncertain.Database {
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

// TestResumeRhoAllocsPerInterval pins the rho blocks: a resume that
// rescans R positions with rank probabilities retained allocates a few
// times per checkpoint interval (one block of rows, one checkpoint), not
// once per position as a row-per-position scan does.
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
	// Per interval: the rho block and the checkpoint's F copy. On top: the
	// info and its presized TopK, write-log, slot-table, block and
	// checkpoint slices.
	if limit := float64(3*R/checkpointEvery + 40); allocs > limit {
		t.Fatalf("resume over %d positions allocates %.0f times, want <= %.0f", R, allocs, limit)
	}
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
