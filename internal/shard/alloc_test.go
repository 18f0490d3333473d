package shard

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/probdb/topkclean/internal/uncertain"
)

// headTailCluster builds a 4-shard cluster over m x-tuples: a head of 200
// two-alternative full-mass x-tuples above a tail of one-alternative ones,
// so Lemma 2 stops every scan inside the head whatever m is.
func headTailCluster(t *testing.T, m int) *Cluster {
	t.Helper()
	db := uncertain.New()
	for g := 0; g < m; g++ {
		var ts []uncertain.Tuple
		if g < 200 {
			for a := 0; a < 2; a++ {
				ts = append(ts, uncertain.Tuple{
					ID:    fmt.Sprintf("h%d.%d", g, a),
					Attrs: []float64{1000 + float64((g*31+a*257)%997) + float64(g)/1e4},
					Prob:  0.5,
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
	c, err := FromDatabase(db, Config{Shards: 4, K: 15, Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCommitRequeryAllocsIndependentOfM pins the cost of the sharded
// serving cycle — one commit (retire the previous arrival, insert a new
// one inside the scanned prefix) followed by the answers and a quality at
// a second k — as independent of the x-tuple count. Publishing an epoch
// must not copy the O(m) placement maps (12 bytes per x-tuple as flat
// slices), and the requery resumes from the arrival's rank rather than
// rescanning from rank 0.
func TestCommitRequeryAllocsIndependentOfM(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10^5-x-tuple cluster; run without -short")
	}
	if raceEnabled {
		t.Skip("allocation counts shift under the race detector")
	}
	ctx := context.Background()
	perCycle := func(m int) float64 {
		c := headTailCluster(t, m)
		i := 0
		cycle := func() {
			err := c.Batch(func(b *Batch) error {
				if i > 0 {
					if err := b.DeleteXTuple(c.dir.view.Len() - 1); err != nil {
						return err
					}
				}
				// Two names alternate, so the ID indexes stay the same size.
				name := fmt.Sprintf("arrival%d", i%2)
				return b.InsertXTuple(name, uncertain.Tuple{ID: name + ".a", Attrs: []float64{1990.5 - float64(i%2)}, Prob: 0.6})
			})
			if err != nil {
				t.Fatal(err)
			}
			i++
			if _, err := c.Answers(ctx); err != nil {
				t.Fatal(err)
			}
			if _, _, err := c.QualityAtVersion(ctx, 10); err != nil {
				t.Fatal(err)
			}
		}
		for j := 0; j < 300; j++ { // past the version-mark rings' growth
			cycle()
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for j := 0; j < runs; j++ {
			cycle()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	small := perCycle(10_000)
	large := perCycle(100_000)
	if slack := 64 * 1024.0; large > small+slack {
		t.Fatalf("a commit plus requery allocates %.0f bytes at m=10^5 vs %.0f at m=10^4; want within %.0f (flat placement maps add %d)",
			large, small, slack, 12*90_000)
	}
	t.Logf("commit plus requery allocates %.0f bytes at m=10^4, %.0f at m=10^5", small, large)
}
