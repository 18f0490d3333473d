package uncertain_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/probdb/topkclean/internal/gen"
	"github.com/probdb/topkclean/internal/uncertain"
)

// churnXTuples sizes the rank-order benchmarks and the churn allocation
// pin: the paper's synthetic database at 10^5 x-tuples holds ~10^6 tuples,
// the size of the churn_requery benchmark workload.
const churnXTuples = 100_000

// readDB is the database the read benchmarks share; they never mutate it.
var readDB = sync.OnceValues(func() (*uncertain.Database, error) {
	return gen.SyntheticSized(churnXTuples, 1)
})

// randomPositions returns count positions drawn uniformly from [0, n).
func randomPositions(n, count int) []int {
	rng := rand.New(rand.NewSource(9))
	out := make([]int, count)
	for i := range out {
		out[i] = rng.Intn(n)
	}
	return out
}

// BenchmarkAtRank times a seek to a random rank position.
func BenchmarkAtRank(b *testing.B) {
	db, err := readDB()
	if err != nil {
		b.Fatal(err)
	}
	pos := randomPositions(db.NumTuples(), 1<<16)
	b.ResetTimer()
	var sink *uncertain.Tuple
	for i := 0; i < b.N; i++ {
		sink = db.AtRank(pos[i&(len(pos)-1)])
	}
	runtime.KeepAlive(sink)
}

// BenchmarkCursorScan times a cursor placed at a random rank position
// and stepped 4096 times: one op is one seek plus 4096 steps.
func BenchmarkCursorScan(b *testing.B) {
	db, err := readDB()
	if err != nil {
		b.Fatal(err)
	}
	const steps = 4096
	pos := randomPositions(db.NumTuples()-steps, 1<<10)
	b.ResetTimer()
	var sink *uncertain.Tuple
	for i := 0; i < b.N; i++ {
		cur := db.CursorAt(pos[i&(len(pos)-1)])
		for range steps {
			sink = cur.Next()
		}
	}
	runtime.KeepAlive(sink)
}

// BenchmarkGroupAt times a lookup of the x-tuple at a random group index.
func BenchmarkGroupAt(b *testing.B) {
	db, err := readDB()
	if err != nil {
		b.Fatal(err)
	}
	idx := randomPositions(db.NumGroups(), 1<<16)
	b.ResetTimer()
	var sink *uncertain.XTuple
	for i := 0; i < b.N; i++ {
		sink = db.GroupAt(idx[i&(len(idx)-1)])
	}
	runtime.KeepAlive(sink)
}

// TestChurnCommitAllocs pins the bytes one churn-shaped commit allocates
// at ~10^6 tuples: delete the previous arrival (the last x-tuple),
// reweight three random x-tuples, insert a 2-alternative arrival, and pin
// a snapshot of every commit, as the churn_requery workload does. Every
// touched x-tuple is cloned, and every rank-order and x-tuple-vector node
// on a path to a touched element is copied once per commit; nothing of the
// order's size is. A spine of one pointer and one start per 256-tuple
// chunk, copied per commit, cost ~167 KiB here.
func TestChurnCommitAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a ~10^6-tuple database; run without -short")
	}
	if uncertain.RaceEnabled {
		t.Skip("allocation counts shift under the race detector")
	}
	db, err := gen.SyntheticSized(churnXTuples, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := db.NumGroups()

	// Draw every commit's operands up front, so the measured loop
	// allocates only what the commits do.
	type commit struct {
		groups  [3]int
		probs   [3][]float64
		name    string
		arrival [2]uncertain.Tuple
	}
	rng := rand.New(rand.NewSource(5))
	const warm, runs = 300, 100
	commits := make([]commit, warm+runs)
	for i := range commits {
		c := &commits[i]
		for j := range c.groups {
			g := rng.Intn(base)
			c.groups[j] = g
			c.probs[j] = make([]float64, len(db.GroupAt(g).RealTuples()))
			for a := range c.probs[j] {
				c.probs[j][a] = (0.3 + 0.6*rng.Float64()) / float64(len(c.probs[j]))
			}
		}
		// Two names alternate, so the ID index keeps its size.
		c.name = fmt.Sprintf("arrival%d", i%2)
		score := 10_000 * rng.Float64()
		c.arrival = [2]uncertain.Tuple{
			{ID: c.name + ".a", Attrs: []float64{score}, Prob: 0.4},
			{ID: c.name + ".b", Attrs: []float64{score - 50}, Prob: 0.3},
		}
	}
	snaps := make([]*uncertain.Database, 0, len(commits))
	run := func(c *commit) {
		err := db.Batch(func(b *uncertain.Batch) error {
			if db.NumGroups() > base {
				if err := b.DeleteXTuple(db.NumGroups() - 1); err != nil {
					return err
				}
			}
			for j, g := range c.groups {
				if err := b.Reweight(g, c.probs[j]); err != nil {
					return err
				}
			}
			return b.InsertXTuple(c.name, c.arrival[:]...)
		})
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, db.Snapshot())
	}
	// Warm up past the version-mark ring's growth phase.
	for i := range warm {
		run(&commits[i])
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := warm; i < len(commits); i++ {
		run(&commits[i])
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(snaps)
	perCommit := float64(after.TotalAlloc-before.TotalAlloc) / runs
	objects := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("%d tuples: a churn commit allocates %.1f KiB in %.0f objects", db.NumTuples(), perCommit/1024, objects)
	if limit := 40 * 1024.0; perCommit > limit {
		t.Fatalf("a churn commit allocates %.1f KiB, want <= %.0f KiB", perCommit/1024, limit/1024)
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}
