package uncertain

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestCommitAllocsSubLinear pins the allocation cost of a commit on a
// large database. With the flat rank array, every commit's COW unshare
// copied the whole order — n*8 bytes (800 KB at n=10^5) before the
// mutation did any work. The copy-on-write sequence must instead copy
// only the nodes on the paths the mutation writes, so both the allocation
// count and the allocated bytes per commit stay small, growing only with
// the tree's logarithmic height.
func TestCommitAllocsSubLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a ~10^5-tuple database; run without -short")
	}
	if raceEnabled {
		t.Skip("allocation counts shift under the race detector")
	}
	rng := rand.New(rand.NewSource(77))
	db := buildWideDB(t, rng, 11000, 9) // ~10^5 tuples with nulls
	n := db.NumTuples()
	if n < 90_000 {
		t.Fatalf("database has %d tuples, want ~10^5", n)
	}

	// Reweight a mid-order x-tuple, alternating between two probability
	// vectors that keep the null alternative alive: the commit is pure
	// in-place probability updates through the chunk-granular COW — no
	// structural splices — which isolates the per-commit publish cost.
	l := db.NumGroups() / 2
	real := db.Groups()[l].RealTuples()
	v1 := make([]float64, len(real))
	v2 := make([]float64, len(real))
	for i, tp := range real {
		v1[i] = tp.Prob * 0.95
		v2[i] = tp.Prob * 0.90
	}
	flip := false
	commit := func() {
		probs := v1
		if flip {
			probs = v2
		}
		flip = !flip
		if err := db.Reweight(l, probs); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up past the version-mark ring's growth phase and let every
	// chunk/group the commit touches settle into its steady COW rhythm.
	for i := 0; i < 300; i++ {
		commit()
	}

	const runs = 100
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, commit)
	runtime.ReadMemStats(&after)
	perCommitBytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)

	// The commit COWs: one x-tuple clone (~10 tuples), the rank-order and
	// x-tuple-vector nodes on the paths to the elements it rewrote (each
	// node <= cowvec.Width pointers, one path per level of a
	// logarithmic-height tree), and the published snapshot bookkeeping.
	// Generous ceilings still sit far below the flat design's O(n) copy.
	if allocs > 120 {
		t.Fatalf("commit performs %.0f allocations, want <= 120", allocs)
	}
	if limit := float64(256 * 1024); perCommitBytes > limit {
		t.Fatalf("commit allocates %.0f bytes, want <= %.0f (flat-array COW would copy %d bytes of order alone)",
			perCommitBytes, limit, 8*n)
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitAllocsIndependentOfM pins the group vector's share of a
// commit. With a flat groups slice every commit's COW unshare copied all m
// x-tuple pointers — 8 bytes per x-tuple, ~700 KiB more at m = 10^5 than
// at m = 10^4. The copy-on-write sequence copies only the nodes on the
// path to the group the commit rewrites, one more level of them on the
// larger database, so the same reweight commit may cost only a small
// constant more there.
func TestCommitAllocsIndependentOfM(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10^5-x-tuple database; run without -short")
	}
	if raceEnabled {
		t.Skip("allocation counts shift under the race detector")
	}
	perCommit := func(m int) float64 {
		rng := rand.New(rand.NewSource(78))
		db := buildWideDB(t, rng, m, 1) // one real alternative plus a null each
		l := m / 2
		p := db.GroupAt(l).RealTuples()[0].Prob
		flip := false
		commit := func() {
			q := p * 0.95
			if flip {
				q = p * 0.90
			}
			flip = !flip
			if err := db.Reweight(l, []float64{q}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 300; i++ { // past the version-mark ring's growth
			commit()
		}
		const runs = 100
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			commit()
		}
		runtime.ReadMemStats(&after)
		if err := db.Validate(); err != nil {
			t.Fatal(err)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	small := perCommit(10_000)
	large := perCommit(100_000)
	if slack := 128 * 1024.0; large > small+slack {
		t.Fatalf("a commit allocates %.0f bytes at m=10^5 vs %.0f at m=10^4; want within %.0f (a flat groups copy adds %d)",
			large, small, slack, 8*90_000)
	}
	t.Logf("commit allocates %.0f bytes at m=10^4, %.0f at m=10^5", small, large)
}
