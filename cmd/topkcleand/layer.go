package main

import (
	"context"
	"errors"
	"os"
	"sync"

	topkclean "github.com/probdb/topkclean"
	"github.com/probdb/topkclean/internal/replica"
	"github.com/probdb/topkclean/internal/shard"
	"github.com/probdb/topkclean/internal/store"
)

// A layer answers and commits for one tenant: the paper's query loop
// (PSR answers, TP quality) and the write side. The handlers and the
// registry see only this interface, so they never know which layer
// answered. engineLayer serves one engine (ephemeral, journaled, or
// following a leader); clusterLayer serves a sharded cluster through its
// merge coordinator. Both answer bit-identically (the shard package's
// differential battery pins this).
type layer interface {
	K() int
	Threshold() float64
	// epoch is what queries see now. /topk looks its body table up by it
	// per request, so it stays an atomic read; stats may take a writer
	// lock and must not stand in for it.
	epoch() epoch
	// answers runs the paper's query pass at threshold and reports the
	// epoch the result describes, which may be newer than the one read
	// before the call.
	answers(ctx context.Context, threshold float64) (*topkclean.Result, epoch, error)
	QualityAtVersion(ctx context.Context, k int) (float64, uint64, error)
	// info is the /dbs row (the caller names it). It takes no lock a
	// commit holds, so listing databases never waits behind a write.
	info() dbInfoJSON
	stats(*statsResponse) // the layer's part of /stats
	ready() bool          // false while a follower has not caught up once
	// mutate commits a /mutate op list as one epoch, journaled when
	// durable. On error the ops before the failing one stay committed.
	mutate(ops []mutateOp) (mutateResponse, error)
	journalCleaning(choices map[int]int) error // after an /apply commit
	engine() *topkclean.Engine                 // the planning engine; nil on a cluster
	durable() bool                             // survives restarts (own journal, or the leader's)
	close() error                              // flush the journal or stop the replica
	drop() error                               // close, then delete the persisted state
}

// storage is where a durable leader journals: a registered store driver
// and the tenant's path under the store root. Both layouts keep all their
// journals at or under that path. The zero value is an ephemeral layer.
type storage struct {
	backend string
	path    string
}

// exists reports whether anything is stored at the layer's path: the
// directory on the file backend, any process-local journal at or under
// it on mem.
func (st storage) exists() bool {
	switch st.backend {
	case "file":
		_, err := os.Lstat(st.path)
		return !errors.Is(err, os.ErrNotExist)
	case "mem":
		return store.MemExists(st.path)
	}
	return false
}

// remove deletes what the layer keeps at its path: the directory on the
// file backend, the process-local journals on mem.
func (st storage) remove() error {
	switch st.backend {
	case "file":
		return os.RemoveAll(st.path)
	case "mem":
		store.DropMem(st.path)
	}
	return nil
}

// newEngine builds a tenant's query and planning engine.
func newEngine(db *topkclean.Database, cfg tenantConfig) (*topkclean.Engine, error) {
	return topkclean.New(db,
		topkclean.WithK(cfg.K),
		topkclean.WithPTKThreshold(cfg.Threshold),
		topkclean.WithSeed(cfg.Seed))
}

// ---- engine layer ----------------------------------------------------------

// engineLayer serves a tenant from one engine. A leader's engine is fixed
// for the tenant's lifetime and sdb, when set, journals its commits. A
// follower tails the leader's journal through rep instead.
type engineLayer struct {
	sdb *store.DB        // nil: ephemeral (or a follower)
	st  storage          // where sdb journals
	rep *replica.Replica // non-nil on follower daemons
	cfg tenantConfig     // follower only: rebuilds the engine on resync

	engMu sync.Mutex // follower only: guards eng and gen across a rebuild
	eng   *topkclean.Engine
	gen   uint64 // replica generation eng was built on
}

// servingEngine returns the engine to serve from and the replica
// generation it was built on (0 on a leader). On a follower the replica's
// incremental tailing keeps the same database (and the engine's
// snapshot-keyed memoization stays warm across replicated commits), but a
// resync — the leader checkpointed past this follower — replaces the
// database wholesale; the engine is then rebuilt over the new one, keyed
// by the replica's generation. A rebuild failure keeps serving the
// previous engine (bounded staleness beats an outage) and retries on the
// next request.
func (l *engineLayer) servingEngine() (*topkclean.Engine, uint64) {
	if l.rep == nil {
		return l.eng, 0
	}
	l.engMu.Lock()
	defer l.engMu.Unlock()
	if gen := l.rep.Generation(); gen != l.gen {
		if eng, err := newEngine(l.rep.DB(), l.cfg); err == nil {
			l.eng, l.gen = eng, gen
		}
	}
	return l.eng, l.gen
}

func (l *engineLayer) engine() *topkclean.Engine {
	eng, _ := l.servingEngine()
	return eng
}

func (l *engineLayer) K() int             { return l.engine().K() }
func (l *engineLayer) Threshold() float64 { return l.engine().Threshold() }

func (l *engineLayer) epoch() epoch {
	eng, gen := l.servingEngine()
	return epoch{gen: gen, version: eng.DB().Snapshot().Version()}
}

// answers tags the result with the generation of the engine that computed
// it, not the live one: a resync racing the pass must not file the old
// database's answer under the new generation.
func (l *engineLayer) answers(ctx context.Context, threshold float64) (*topkclean.Result, epoch, error) {
	eng, gen := l.servingEngine()
	res, err := eng.AnswersThreshold(ctx, threshold)
	if err != nil {
		return nil, epoch{}, err
	}
	return res, epoch{gen: gen, version: res.Version}, nil
}

func (l *engineLayer) QualityAtVersion(ctx context.Context, k int) (float64, uint64, error) {
	return l.engine().QualityAtVersion(ctx, k)
}

func (l *engineLayer) durable() bool { return l.sdb != nil || l.rep != nil }
func (l *engineLayer) ready() bool   { return l.rep == nil || l.rep.Ready() }

func (l *engineLayer) info() dbInfoJSON {
	eng := l.engine()
	snap := eng.DB().Snapshot()
	return dbInfoJSON{Version: snap.Version(), XTuples: snap.NumGroups(), Tuples: snap.NumTuples(),
		K: eng.K(), Threshold: eng.Threshold(), Durable: l.durable()}
}

func (l *engineLayer) stats(r *statsResponse) {
	eng := l.engine()
	snap := eng.DB().Snapshot()
	r.Version, r.XTuples, r.Tuples, r.RealTuples = snap.Version(), snap.NumGroups(), snap.NumTuples(), snap.NumRealTuples()
	r.K, r.Threshold, r.Durable = eng.K(), eng.Threshold(), l.durable()
	if l.sdb != nil {
		r.WALRecords, r.CheckpointVer = l.sdb.SinceCheckpoint()
	}
	if l.rep != nil {
		lag := l.rep.Lag()
		r.Replication = &replicationJSON{
			AppliedVersion: l.rep.Version(),
			VersionsBehind: lag.Versions,
			BytesBehind:    lag.Bytes,
			Ready:          l.rep.Ready(),
			Resyncs:        l.rep.Resyncs(),
		}
		if err := l.rep.Err(); err != nil {
			r.Replication.LastError = err.Error()
		}
	}
}

// mutate commits through the store when durable, so each successful op
// is journaled, and straight into the database otherwise. Leaders only:
// the write routes refuse on followers.
func (l *engineLayer) mutate(ops []mutateOp) (resp mutateResponse, err error) {
	db := l.eng.DB()
	if l.sdb != nil {
		resp, err = batchOps(l.sdb.Batch, ops, db.Version())
	} else {
		resp, err = batchOps(db.Batch, ops, db.Version())
	}
	resp.XTuples, resp.Tuples = db.NumGroups(), db.NumTuples()
	return resp, err
}

func (l *engineLayer) journalCleaning(choices map[int]int) error {
	if l.sdb == nil {
		return nil
	}
	return l.sdb.JournalCleaning(choices)
}

func (l *engineLayer) close() error {
	switch {
	case l.rep != nil:
		return l.rep.Close()
	case l.sdb != nil:
		return l.sdb.Close()
	}
	return nil
}

// drop closes the layer and removes its journal. The journal is about to
// be unlinked, so a failed final checkpoint inside close is irrelevant —
// removal is the intent.
func (l *engineLayer) drop() error {
	_ = l.close()
	return l.st.remove()
}

// ---- cluster layer ---------------------------------------------------------

// clusterLayer serves a sharded tenant: the cluster routes writes to the
// shards owning their x-tuples and answers through its merge coordinator.
// It owns its per-shard stores and placement journal (see DESIGN.md
// "Sharded serving").
type clusterLayer struct {
	*shard.Cluster
	st storage // where the cluster journals; zero when ephemeral
}

// epoch: a cluster has no replica generation.
func (c *clusterLayer) epoch() epoch { return epoch{version: c.Version()} }

func (c *clusterLayer) answers(ctx context.Context, threshold float64) (*topkclean.Result, epoch, error) {
	r, err := c.AnswersThreshold(ctx, threshold)
	if err != nil {
		return nil, epoch{}, err
	}
	return r, epoch{version: r.Version}, nil
}

func (c *clusterLayer) engine() *topkclean.Engine { return nil }
func (c *clusterLayer) durable() bool             { return c.st.backend != "" }
func (c *clusterLayer) ready() bool               { return true }
func (c *clusterLayer) close() error              { return c.Close() }

// info reads only the published epoch, not Stats: that takes the writer
// lock a commit holds through its journal fsyncs.
func (c *clusterLayer) info() dbInfoJSON {
	return dbInfoJSON{Version: c.Version(), XTuples: c.NumGroups(), Tuples: c.NumTuples(),
		K: c.K(), Threshold: c.Threshold(), Shards: c.Shards(), Durable: c.durable()}
}

func (c *clusterLayer) stats(r *statsResponse) {
	r.Version, r.XTuples, r.Tuples, r.RealTuples = c.Version(), c.NumGroups(), c.NumTuples(), c.NumRealTuples()
	r.K, r.Threshold, r.Durable = c.K(), c.Threshold(), c.durable()
	r.Shards = c.Stats()
}

// mutate runs the op list through the cluster's batch: the same
// prefix-on-failure, one-epoch-per-request semantics as the engine's (the
// shard package's differential battery pins the parity, error texts
// included), with the router splitting ops across shards.
func (c *clusterLayer) mutate(ops []mutateOp) (mutateResponse, error) {
	resp, err := batchOps(c.Batch, ops, c.Version())
	resp.XTuples, resp.Tuples = c.NumGroups(), c.NumTuples()
	return resp, err
}

func (c *clusterLayer) journalCleaning(map[int]int) error { return errShardedCleaning }

func (c *clusterLayer) drop() error {
	_ = c.Close()
	return c.st.remove()
}
