package shard

import (
	"context"
	"fmt"
	"testing"

	"github.com/probdb/topkclean/internal/uncertain"
)

// certainLadder builds a cluster (and its unsharded mirror) of `groups`
// certain x-tuples with strictly descending scores: the PSR scan reaches
// k full groups after exactly k positions.
func certainLadder(t *testing.T, shards, k, groups int) (*Cluster, *uncertain.Database) {
	t.Helper()
	c, err := New(Config{Shards: shards, K: k, Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	db := uncertain.New()
	for i := 0; i < groups; i++ {
		tu := uncertain.Tuple{ID: fmt.Sprintf("c%d", i), Attrs: []float64{float64(1000 - i)}, Prob: 1}
		name := fmt.Sprintf("lg%d", i)
		if err := c.AddXTuple(name, tu); err != nil {
			t.Fatal(err)
		}
		if err := db.AddXTuple(name, tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Build(); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(uncertain.ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	return c, db
}

// TestEarlyTerminationPullBound proves the coordinator's lazy merge with
// the per-shard scan counters: a top-k query whose PSR scan terminates
// after Processed positions pulls one head from every shard plus one
// refill per position but the last — Processed + N - 1 tuples in total.
func TestEarlyTerminationPullBound(t *testing.T) {
	const shards, k = 4, 3
	c, db := certainLadder(t, shards, k, 40)
	compareAll(t, c, db)
	checkInvariant(t, c)
	if got := c.ans.info.Processed; got != k {
		t.Fatalf("scan processed %d positions; Lemma 2 terminates after exactly %d", got, k)
	}
	stats := c.Stats()
	var total uint64
	for s, st := range stats {
		if st.Scanned == 0 {
			t.Fatalf("shard %d never pulled; the merge needs every shard's head", s)
		}
		total += st.Scanned
	}
	if want := uint64(k + shards - 1); total != want {
		t.Fatalf("merge pulled %d tuples; Processed + N - 1 = %d", total, want)
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
	expect := func(what string, owner func() int, op func(*Cluster) error, plain func(*uncertain.Database) error) {
		t.Helper()
		before := versions()
		if err := op(c); err != nil {
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
	shardOf := func(l int) int { return c.dir.entries[l].shard }
	last := func() int { return shardOf(c.NumGroups() - 1) }
	at := func(l int) func() int { return func() int { return shardOf(l) } }

	expect("reweight", at(39),
		func(c *Cluster) error { return c.Reweight(39, []float64{0.5}) },
		func(db *uncertain.Database) error { return db.Reweight(39, []float64{0.5}) })

	// An insert whose alternatives span the whole ladder: above the top
	// group and below the bottom one.
	straddle := []uncertain.Tuple{
		{ID: "sp-hi", Attrs: []float64{2000}, Prob: 0.5},
		{ID: "sp-lo", Attrs: []float64{-5}, Prob: 0.5},
	}
	expect("straddling insert", last,
		func(c *Cluster) error { return c.InsertXTuple("straddle", straddle...) },
		func(db *uncertain.Database) error { return db.InsertXTuple("straddle", straddle...) })
	expect("collapse", at(40),
		func(c *Cluster) error { return c.Collapse(40, 1) },
		func(db *uncertain.Database) error { return db.Collapse(40, 1) })
	expect("absent insert", last,
		func(c *Cluster) error { return c.InsertAbsentXTuple("gone") },
		func(db *uncertain.Database) error { return db.InsertAbsentXTuple("gone") })
	for _, l := range []int{0, 17, 38} {
		owner := shardOf(l) // the group is gone after the delete
		expect("delete", func() int { return owner },
			func(c *Cluster) error { return c.DeleteXTuple(l) },
			func(db *uncertain.Database) error { return db.DeleteXTuple(l) })
	}
}
