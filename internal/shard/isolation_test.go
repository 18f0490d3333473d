package shard

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/probdb/topkclean/internal/memo"
	"github.com/probdb/topkclean/internal/quality"
	"github.com/probdb/topkclean/internal/topkq"
	"github.com/probdb/topkclean/internal/uncertain"
)

// certainLadder builds a cluster (and its unsharded mirror) of `groups`
// certain x-tuples with strictly descending scores: the PSR scan reaches
// k full groups after exactly k positions.
func certainLadder(t *testing.T, shards, k, groups int) (*Cluster, *uncertain.Database) {
	t.Helper()
	db := uncertain.New()
	for i := 0; i < groups; i++ {
		tu := uncertain.Tuple{ID: fmt.Sprintf("c%d", i), Attrs: []float64{float64(1000 - i)}, Prob: 1}
		if err := db.AddXTuple(fmt.Sprintf("lg%d", i), tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Build(uncertain.ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	c, err := FromDatabase(db, Config{Shards: shards, K: k, Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return c, db
}

// TestEarlyTerminationPullBound proves the coordinator's lazy merge with
// the per-shard scan counters: a top-k query whose PSR scan terminates
// after Processed positions pulls one head from every shard plus one
// refill per position but the last — Processed + N - 1 tuples in total,
// once per query size compareAll evaluates.
func TestEarlyTerminationPullBound(t *testing.T) {
	const shards, k = 4, 3
	c, db := certainLadder(t, shards, k, 40)
	compareAll(t, c, db)
	checkInvariant(t, c)
	var want uint64
	for _, kq := range comparedKs(k) {
		if got := c.memo.Peek(kq).Info.Processed; got != kq {
			t.Fatalf("scan at k=%d processed %d positions; Lemma 2 terminates after exactly %d", kq, got, kq)
		}
		want += uint64(kq + shards - 1)
	}
	stats := c.Stats()
	var total uint64
	for s, st := range stats {
		if st.Scanned == 0 {
			t.Fatalf("shard %d never pulled; the merge needs every shard's head", s)
		}
		total += st.Scanned
	}
	if total != want {
		t.Fatalf("merge pulled %d tuples; the sum of Processed + N - 1 over k in %v is %d", total, comparedKs(k), want)
	}

	// Repeated queries at the same version hit the memoized evaluation and
	// replay its buffered prefix — PT-k at other thresholds and the
	// quality at the configured k included: no additional scan work
	// anywhere.
	ctx := context.Background()
	if _, err := c.Answers(ctx); err != nil {
		t.Fatal(err)
	}
	for _, th := range []float64{0, 0.9} {
		if _, err := c.AnswersThreshold(ctx, th); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.QualityAtVersion(ctx, k); err != nil {
		t.Fatal(err)
	}
	for s, st := range c.Stats() {
		if st.Scanned != stats[s].Scanned {
			t.Fatalf("shard %d scanned grew on a memoized query", s)
		}
	}
}

// TestRepeatedQualityAtOtherKPullsNoShard pins the per-k memo: quality at
// a k other than the configured one is memoized like the configured k's
// evaluation, so asking again at the same version pulls no shard, and
// after a mutation below the scan's termination point the resumed entry
// is a pure cache hit that pulls only the prefix its carry walk compares.
func TestRepeatedQualityAtOtherKPullsNoShard(t *testing.T) {
	const shards, k, other = 4, 3, 5
	c, db := certainLadder(t, shards, k, 40)
	ctx := context.Background()
	ask := func() {
		t.Helper()
		q, v, err := c.QualityAtVersion(ctx, other)
		if err != nil {
			t.Fatal(err)
		}
		info, err := topkq.TopKProbabilities(db, other)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := quality.TPFromInfo(db, info)
		if err != nil {
			t.Fatal(err)
		}
		if v != db.Version() || math.Float64bits(q) != math.Float64bits(ev.S) {
			t.Fatalf("quality at k=%d: (%v, v%d), plain (%v, v%d)", other, q, v, ev.S, db.Version())
		}
	}
	ask()
	first := totalScanned(c)
	for i := 0; i < 3; i++ {
		ask()
	}
	if got := totalScanned(c); got != first {
		t.Fatalf("repeated quality at k=%d pulled %d more tuples at one version", other, got-first)
	}

	// A reweight at the bottom of the ladder lies below the termination
	// point: the carry walk re-pulls the processed prefix of the new epoch
	// (other positions plus one head per shard) and nothing else.
	if err := c.Batch(func(b *Batch) error { return b.Reweight(39, []float64{0.5}) }); err != nil {
		t.Fatal(err)
	}
	if err := db.Reweight(39, []float64{0.5}); err != nil {
		t.Fatal(err)
	}
	ask()
	if got, limit := totalScanned(c)-first, uint64(other+shards-1); got != limit {
		t.Fatalf("resumed quality at k=%d pulled %d tuples; its processed prefix is %d", other, got, limit)
	}
	mid := totalScanned(c)
	ask()
	if got := totalScanned(c); got != mid {
		t.Fatalf("repeated resumed quality at k=%d pulled %d more tuples", other, got-mid)
	}
}

// TestMutationInvalidatesExactlyTouchedShards pins which shard-local
// versions move under each mutation: every insert, delete, reweight, and
// collapse commits on exactly the shard that owns the group — including
// an insert whose scores straddle the whole ladder, since groups never
// move.
func TestMutationInvalidatesExactlyTouchedShards(t *testing.T) {
	const shards = 4
	c, db := certainLadder(t, shards, 3, 40)

	versions := func() []uint64 {
		vs := make([]uint64, shards)
		for i, st := range c.Stats() {
			vs[i] = st.Version
		}
		return vs
	}
	// expect runs op on both sides and requires exactly the shard owner()
	// names, evaluated after op, to commit.
	expect := func(what string, owner func() int, op func(*Batch) error, plain func(*uncertain.Database) error) {
		t.Helper()
		before := versions()
		if err := c.Batch(op); err != nil {
			t.Fatal(err)
		}
		if err := plain(db); err != nil {
			t.Fatal(err)
		}
		want := owner()
		after := versions()
		for s := 0; s < shards; s++ {
			if bumped := after[s] != before[s]; bumped != (s == want) {
				t.Fatalf("%s: shard %d version bumped=%v, owner is shard %d", what, s, bumped, want)
			}
		}
		compareAll(t, c, db)
		checkInvariant(t, c)
	}
	shardOf := func(l int) int { s, _ := c.dir.at(l); return s }
	last := func() int { return shardOf(c.NumGroups() - 1) }
	at := func(l int) func() int { return func() int { return shardOf(l) } }

	expect("reweight", at(39),
		func(b *Batch) error { return b.Reweight(39, []float64{0.5}) },
		func(db *uncertain.Database) error { return db.Reweight(39, []float64{0.5}) })

	// An insert whose alternatives span the whole ladder: above the top
	// group and below the bottom one.
	straddle := []uncertain.Tuple{
		{ID: "sp-hi", Attrs: []float64{2000}, Prob: 0.5},
		{ID: "sp-lo", Attrs: []float64{-5}, Prob: 0.5},
	}
	expect("straddling insert", last,
		func(b *Batch) error { return b.InsertXTuple("straddle", straddle...) },
		func(db *uncertain.Database) error { return db.InsertXTuple("straddle", straddle...) })
	expect("collapse", at(40),
		func(b *Batch) error { return b.Collapse(40, 1) },
		func(db *uncertain.Database) error { return db.Collapse(40, 1) })
	expect("absent insert", last,
		func(b *Batch) error { return b.InsertAbsentXTuple("gone") },
		func(db *uncertain.Database) error { return db.InsertAbsentXTuple("gone") })
	for _, l := range []int{0, 17, 38} {
		owner := shardOf(l) // the group is gone after the delete
		expect("delete", func() int { return owner },
			func(b *Batch) error { return b.DeleteXTuple(l) },
			func(db *uncertain.Database) error { return db.DeleteXTuple(l) })
	}
}

// TestConcurrentReadersVsWriter runs readers at several k against a
// writer committing a mutation stream, so memo entries migrate, walk
// their prior's buffered prefix and replay it while other goroutines
// still read the superseded entries. Every answer must match the
// unsharded evaluation of the version it reports, bit for bit. Run it
// under -race: the readers share merged sources across goroutines.
func TestConcurrentReadersVsWriter(t *testing.T) {
	const steps, readers = 150, 3
	m := newMirror(t, 31, 4, 4, 60)
	var reads atomic.Int64
	var plain sync.Map // version -> frozen plain snapshot
	plain.Store(m.db.Version(), m.db.Snapshot())
	// expect evaluates version v unsharded. The writer commits the
	// cluster just before recording the plain snapshot of the same
	// version, so a reader may briefly wait for it.
	expect := func(v uint64, k int) (float64, error) {
		snap, ok := plain.Load(v)
		for ; !ok; snap, ok = plain.Load(v) {
			runtime.Gosched()
		}
		db := snap.(*uncertain.Database)
		info, err := topkq.TopKProbabilities(db, k)
		if err != nil {
			return 0, err
		}
		ev, err := quality.TPFromInfo(db, info)
		if err != nil {
			return 0, err
		}
		return ev.S, nil
	}
	ctx := context.Background()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				k := 1 + (r+i)%5
				var q float64
				var v uint64
				var err error
				if k == m.c.K() {
					var res *memo.Result
					if res, err = m.c.Answers(ctx); err == nil {
						q, v = res.Quality, res.Version
					}
				} else {
					q, v, err = m.c.QualityAtVersion(ctx, k)
				}
				if err != nil {
					continue // k above the group count at this version
				}
				reads.Add(1)
				want, err := expect(v, k)
				if err != nil {
					t.Errorf("reader %d: version %d at k=%d: cluster answered, plain: %v", r, v, k, err)
					return
				}
				if math.Float64bits(q) != math.Float64bits(want) {
					t.Errorf("reader %d: quality at k=%d, version %d: %v, plain %v", r, k, v, q, want)
					return
				}
			}
		}(r)
	}
	for i := 0; i < steps; i++ {
		m.step()
		plain.Store(m.db.Version(), m.db.Snapshot())
		for reads.Load() < int64(i) && !t.Failed() { // let the readers keep up
			runtime.Gosched()
		}
	}
	close(done)
	wg.Wait()
}

// TestDeletesBelowTerminationMatchFresh pins the cluster's memo across the
// deletes below the termination point. A tail delete renumbers nothing:
// the carry walk matches the whole prefix, every slot is where it was,
// and the evaluation is carried — its gains are the prior's slice. A
// delete that renumbers a prefix x-tuple's global index stops the walk at
// that x-tuple (identities are per shard, so a slot is never searched
// for), and the resumed evaluation is bit for bit a fresh one over the
// new epoch, its gains keyed by the new indices.
func TestDeletesBelowTerminationMatchFresh(t *testing.T) {
	const shards, k = 4, 3
	db := uncertain.New()
	var c *Cluster
	add := func(name string, score float64, build bool) {
		t.Helper()
		ts := []uncertain.Tuple{
			{ID: name + ".a", Attrs: []float64{score}, Prob: 0.5},
			{ID: name + ".b", Attrs: []float64{score - 1}, Prob: 0.5},
		}
		if build {
			if err := db.AddXTuple(name, ts...); err != nil {
				t.Fatal(err)
			}
			return
		}
		if err := c.Batch(func(b *Batch) error { return b.InsertXTuple(name, ts...) }); err != nil {
			t.Fatal(err)
		}
		if err := db.InsertXTuple(name, ts...); err != nil {
			t.Fatal(err)
		}
	}
	for g := 0; g < 40; g++ {
		add(fmt.Sprintf("G%d", g), float64(1000-2*g), true)
	}
	if err := db.Build(uncertain.ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	c, err := FromDatabase(db, Config{Shards: shards, K: k, Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	get := func(stage string) *memo.State[*merged] {
		t.Helper()
		st, err := c.memo.Get(ctx, k, false)
		if err != nil {
			t.Fatal(err)
		}
		info, err := topkq.TopKProbabilities(st.View, k)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := quality.TPFromInfo(st.View, info)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameEval(st.Eval, fresh); err != nil {
			t.Fatalf("%s: memoized vs fresh: %v", stage, err)
		}
		plain, err := quality.TP(db, k)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameEval(st.Eval, plain); err != nil {
			t.Fatalf("%s: cluster vs plain: %v", stage, err)
		}
		return st
	}

	st := get("fresh")
	if st.Info.Processed != 2*k || len(st.Eval.Gains()) == 0 {
		t.Fatalf("fresh: %d positions, %d gains; the ladder needs %d and some", st.Info.Processed, len(st.Eval.Gains()), 2*k)
	}
	last := c.NumGroups() - 1
	if err := c.Batch(func(b *Batch) error { return b.DeleteXTuple(last) }); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteXTuple(last); err != nil {
		t.Fatal(err)
	}
	tail := get("tail delete")
	if !tail.Info.Kept() || &tail.Info.TopK[0] != &st.Info.TopK[0] || &tail.Eval.Gains()[0] != &st.Eval.Gains()[0] {
		t.Fatalf("tail delete: kept %v; the evaluation was not carried", tail.Info.Kept())
	}

	// A new top x-tuple takes the highest global index, so a delete below
	// the prefix renumbers it.
	add("top", 2000, false)
	st = get("insert")
	top := c.NumGroups() - 1
	if err := c.Batch(func(b *Batch) error { return b.DeleteXTuple(10) }); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteXTuple(10); err != nil {
		t.Fatal(err)
	}
	moved := get("renumbering delete")
	if moved.Info.Kept() {
		t.Fatal("renumbering delete: the info kept the prior's slots")
	}
	if g := moved.Eval.Gain(top - 1); g == 0 || g != st.Eval.Gain(top) || moved.Eval.Gain(top) != 0 {
		t.Fatalf("renumbering delete: the top x-tuple's gain %v at its new index %d, %v at its old; prior %v", g, top-1, moved.Eval.Gain(top), st.Eval.Gain(top))
	}
}

// sameEval compares two evaluations bit for bit: S, every weight, and
// every gain with its group.
func sameEval(got, want *quality.Evaluation) error {
	if math.Float64bits(got.S) != math.Float64bits(want.S) {
		return fmt.Errorf("S = %v, want %v", got.S, want.S)
	}
	if len(got.Omega) != len(want.Omega) {
		return fmt.Errorf("%d weights, want %d", len(got.Omega), len(want.Omega))
	}
	for i := range got.Omega {
		if math.Float64bits(got.Omega[i]) != math.Float64bits(want.Omega[i]) {
			return fmt.Errorf("Omega[%d] = %v, want %v", i, got.Omega[i], want.Omega[i])
		}
	}
	g, w := got.Gains(), want.Gains()
	if len(g) != len(w) {
		return fmt.Errorf("%d gains, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i].Group != w[i].Group || math.Float64bits(g[i].Value) != math.Float64bits(w[i].Value) {
			return fmt.Errorf("gain %d = %+v, want %+v", i, g[i], w[i])
		}
	}
	return nil
}
