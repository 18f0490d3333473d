// Package shard is the in-process sharded serving engine: a database
// whose x-tuples are hash-placed, each whole, across N shard databases, a
// router that sends every mutation to the owning shard, and a coordinator
// that merges the per-shard rank orders into one global rank order and
// answers top-k queries from it — bit-identically to the unsharded engine.
//
// A cluster adds only placement and the merge. It comes from a built
// database (FromDatabase) or from its journal (Open); the router validates
// with the unsharded database's own insert and reweight checks
// (uncertain.CheckInsert, uncertain.CheckReweight) against every shard's
// ID index; and the answers are the unsharded engine's bundle
// (memo.Result).
//
// The shards are plain in-memory databases. A durable cluster keeps one
// journal for all of them (see persist.go): one record and one fsync per
// commit, and recovery replays the records through the router.
//
// # Placement
//
// Every real alternative carries a global sequence stamp (gseq), assigned
// once at its first insert. The global rank key of an alternative is the
// pair (score, gseq), ordered by score descending, gseq ascending —
// exactly the unsharded total order (ranksAbove), because stamps are
// assigned in the same arrival order the unsharded database would use.
// Each shard database stores its alternatives with the gseq as the local
// tie-break stamp (uncertain.AddXTupleSeq / Batch.InsertXTupleSeq), so a
// shard's local rank order is the global order restricted to the shard,
// whatever the placement. An x-tuple is placed once, at insert, by
// place(gseq₀, N) — a fixed mix of its first stamp — and never moves;
// absent x-tuples hold no stamp and sit in the bottom shard.
//
// # The merge
//
// Because every local order agrees with the global key, a k-way merge of
// the N shard-local real orders by (score, gseq), followed by the null
// alternatives in global group-index order, is exactly the global rank
// order. The coordinator presents that merge as a topkq.Source, so the
// engine's own PSR scan, answer semantics and TP pass run over it
// unchanged, and every answer is bit-identical to the unsharded engine's
// (see shard_test.go).
//
// # Sentinels
//
// The underlying database forbids emptiness, and a shard can be empty at
// build or emptied by deletes, so every shard database holds one hidden
// absent x-tuple (the sentinel) at local index 0. Sentinels are invisible
// to the directory, the merge, and all counts. The sentinel's group name
// (and its null alternative's ID) are reserved; inserts using them, and
// FromDatabase sources holding them, are rejected.
package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/probdb/topkclean/internal/memo"
	"github.com/probdb/topkclean/internal/store"
	"github.com/probdb/topkclean/internal/topkq"
	"github.com/probdb/topkclean/internal/uncertain"
)

// sentinelName is the reserved group name of the hidden absent x-tuple
// every shard database carries. The leading NUL keeps it out of any
// reasonable user namespace; inserts under it (or its null's ID) are
// rejected explicitly.
const sentinelName = "\x00shard-sentinel"

// sentinelNullID is the ID of the sentinel's materialized null.
const sentinelNullID = "null:" + sentinelName

// ErrReservedName is returned when an insert uses the shard layer's
// reserved sentinel group name or tuple ID.
var ErrReservedName = errors.New("shard: name reserved for the shard sentinel")

// ErrPoisoned wraps a journal write failure (and, with it,
// store.ErrPoisoned): the cluster's in-memory state may be ahead of its
// journal, so further writes are refused while reads keep serving the last
// durable epoch.
var ErrPoisoned = errors.New("shard: cluster write failed; cluster is read-only")

// Config configures a cluster.
type Config struct {
	// Shards is the number of shards (>= 1). A 1-shard cluster is the
	// degenerate case used by differential tests.
	Shards int

	// K is the query size shared by Answers and Quality.
	K int

	// Threshold is the default PT-k probability threshold for Answers.
	Threshold float64

	// Rank scores tuples when Open recovers the shards; nil means
	// uncertain.ByFirstAttr. FromDatabase ignores it and inherits the
	// source database's ranking function.
	Rank uncertain.RankFunc

	// Backend names a store driver ("file", "mem"); empty means no
	// persistence. With a backend, the cluster journals to Path.
	Backend string

	// Path is where the cluster's journal lives.
	Path string

	// StoreOpts set the journal's fsync and checkpoint policy, as for
	// store.Create and store.Open.
	StoreOpts []store.Option
}

// shardHandle is one shard: its live database and the cumulative
// merge-scan pull counter.
type shardHandle struct {
	db      *uncertain.Database
	scanned atomic.Uint64
}

// Cluster is a sharded database plus the router and coordinator over
// it. Mutations serialize on the cluster's writer lock and publish
// one immutable epoch per commit; queries read pinned epochs and run
// fully concurrently with writers, exactly like the unsharded engine.
type Cluster struct {
	cfg  Config
	rank uncertain.RankFunc

	mu       sync.Mutex // writer lock: mutations, Close
	shards   []*shardHandle
	dir      *directory
	nextGseq int
	version  uint64
	closed   bool
	j        *store.Journal // nil without persistence

	epoch atomic.Pointer[epoch]
	memo  *memo.Memo[*merged] // memoized evaluation per query size k
}

// newCluster returns a cluster with a validated config and no shards yet:
// FromDatabase distributes a source database over it, Open recovers its
// journal.
func newCluster(cfg Config) (*Cluster, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: %d shards: need at least 1", cfg.Shards)
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("k = %d: %w", cfg.K, topkq.ErrBadK)
	}
	if cfg.Rank == nil {
		cfg.Rank = uncertain.ByFirstAttr
	}
	c := &Cluster{cfg: cfg, rank: cfg.Rank}
	c.memo = memo.New(c.pin, carryMerged)
	return c, nil
}

// checkReserved rejects the sentinel namespace at every insert entrance.
func checkReserved(name string, tuples []uncertain.Tuple) error {
	if name == sentinelName {
		return fmt.Errorf("%w: %q", ErrReservedName, name)
	}
	for i := range tuples {
		if tuples[i].ID == sentinelNullID {
			return fmt.Errorf("%w: %q", ErrReservedName, tuples[i].ID)
		}
	}
	return nil
}

// FromDatabase builds a cluster holding the same logical database as an
// already-built (live or snapshot) source: same groups, same
// probabilities, same rank order — every answer bit-identical. The
// cluster inherits the source's ranking function and version; the source
// is only read.
func FromDatabase(db *uncertain.Database, cfg Config) (*Cluster, error) {
	if db == nil || !db.Built() {
		return nil, uncertain.ErrNotBuilt
	}
	cfg.Rank = db.Rank()
	c, err := newCluster(cfg)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.buildFromLocked(db, db.Version(), c.placeGroup); err != nil {
		return nil, err
	}
	return c, nil
}

// buildFromLocked distributes a built source database over the cluster's
// shards, putting group g whole on shard assign(g, gseqs), where gseqs are
// its real alternatives' global stamps. The stamps are the source's own
// tie-break stamps: they already order the source's score ties, so the
// cluster inherits its rank order exactly.
func (c *Cluster) buildFromLocked(src *uncertain.Database, version uint64, assign func(g int, gseqs []int) int) error {
	for _, x := range src.Groups() {
		if err := checkReserved(x.Name, nil); err != nil {
			return err
		}
		for _, t := range x.Tuples {
			if t.ID == sentinelNullID {
				return fmt.Errorf("%w: %q", ErrReservedName, t.ID)
			}
		}
	}

	// Stage and build the shard databases: sentinel first (local index 0),
	// then each shard's groups in global index order.
	dbs := make([]*uncertain.Database, c.cfg.Shards)
	for i := range dbs {
		dbs[i] = uncertain.New()
		if err := dbs[i].AddAbsentXTuple(sentinelName); err != nil {
			return err
		}
	}
	dir := newDirectory(c.cfg.Shards)
	var specs []uncertain.Tuple // AddXTupleSeq copies IDs and attributes, so one buffer serves every group
	for g, x := range src.Groups() {
		reals := x.RealTuples()
		var gseqs []int
		specs = specs[:0]
		for _, t := range reals {
			gseqs = append(gseqs, t.Stamp())
			c.nextGseq = max(c.nextGseq, t.Stamp()+1)
			specs = append(specs, uncertain.Tuple{ID: t.ID, Attrs: t.Attrs, Prob: t.Prob})
		}
		sh := assign(g, gseqs)
		var err error
		if len(reals) == 0 {
			err = dbs[sh].AddAbsentXTuple(x.Name)
		} else {
			err = dbs[sh].AddXTupleSeq(x.Name, gseqs, specs...)
		}
		if err != nil {
			return err
		}
		dir.append(sh)
	}
	for i := range dbs {
		if err := dbs[i].Build(c.rank); err != nil {
			return err
		}
	}

	c.shards = make([]*shardHandle, len(dbs))
	for i := range dbs {
		c.shards[i] = &shardHandle{db: dbs[i]}
	}
	c.dir = dir
	c.version = version

	if c.cfg.Backend != "" {
		if err := c.createJournalLocked(); err != nil {
			c.shards = nil
			return err
		}
	}
	c.publishLocked()
	return nil
}

// Close flushes the journal with a final checkpoint, so the next Open
// replays nothing, and releases its backend.
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.j == nil {
		return nil
	}
	return c.j.Close()
}

// K returns the configured query size.
func (c *Cluster) K() int { return c.cfg.K }

// Threshold returns the configured default PT-k threshold.
func (c *Cluster) Threshold() float64 { return c.cfg.Threshold }

// Shards returns the number of shards.
func (c *Cluster) Shards() int { return c.cfg.Shards }

// Version returns the cluster version of the current published epoch.
func (c *Cluster) Version() uint64 { return c.epoch.Load().version }

// NumGroups returns the global x-tuple count of the current epoch.
func (c *Cluster) NumGroups() int { return c.epoch.Load().m }

// NumTuples returns the global alternative count of the current epoch.
func (c *Cluster) NumTuples() int { return c.epoch.Load().n }

// NumRealTuples returns the global real-alternative count of the current
// epoch (sentinels are absent groups, so they contribute none).
func (c *Cluster) NumRealTuples() int {
	n := 0
	for _, snap := range c.epoch.Load().snaps {
		n += snap.NumRealTuples()
	}
	return n
}
