package shard

import (
	"encoding/json"
	"errors"
	"fmt"

	"github.com/probdb/topkclean/internal/store"
)

// Persistence layout: shard i is a full store.DB (checkpoint + WAL) at
// Path/shard-i, recovering bit-identically on its own; the cluster
// directory — placement, stamps, the global sequence counter — journals
// to a raw backend at Path/meta, one record per cluster commit, appended
// after the commit's shard records. A clean Close checkpoints the meta
// journal, so the ordinary reopen path replays nothing.
//
// The layout is multi-journal, so a crash can tear a commit across
// journals (shard WALs ahead of the meta journal). Open detects this —
// every meta record carries the per-shard versions its commit left
// behind, and recovery cross-checks them against the recovered shards —
// and refuses with ErrInconsistent rather than serving a silently skewed
// directory. Graceful shutdown is the supported durability path; torn
// recovery is detected, not repaired.
//
// The meta checkpoint carries a format number. Format 2 (hash placement:
// no group ever moves, so local indices are recomputed from global order)
// replaced format 1 (range shards, with explicit local indices and move
// records); Open refuses any other format with ErrMetaFormat before
// touching a shard journal.

// metaFormat is the meta checkpoint format this package writes and reads.
const metaFormat = 2

// metaCheckpointEvery is how many meta records accumulate before the
// directory is checkpointed and the meta WAL trimmed.
const metaCheckpointEvery = 256

// ErrInconsistent is returned by Open when the shard journals and the
// cluster meta journal disagree — the signature of a crash mid-commit
// across the multi-journal layout.
var ErrInconsistent = errors.New("shard: shard journals and cluster directory disagree (torn multi-journal commit)")

// ErrMetaFormat is returned by Open when the meta checkpoint is not in
// this package's format — a sharded layout written by an older release,
// which must be re-created rather than reinterpreted.
var ErrMetaFormat = errors.New("shard: unsupported sharded layout format; re-create the database")

// metaOp is one directory transition within a commit, in application
// order: ins (new group on shard s with stamps), abs (new absent group on
// shard s), del (remove global index i), clp (collapse global index i to
// choice c).
type metaOp struct {
	Op     string `json:"op"`
	Shard  int    `json:"s,omitempty"`
	Gseqs  []int  `json:"seqs,omitempty"`
	Index  int    `json:"i,omitempty"`
	Choice int    `json:"c,omitempty"`
}

// metaRecord is one cluster commit: the version it produced, the
// post-commit shard versions (the torn-commit cross-check), the
// post-commit global sequence counter, and the directory transitions.
type metaRecord struct {
	Version  uint64   `json:"v"`
	NextGseq int      `json:"g"`
	ShardV   []uint64 `json:"sv"`
	Ops      []metaOp `json:"ops,omitempty"`
}

// metaEntry is one directory entry in a checkpoint. Its local index is
// not recorded: it is the entry's rank among same-shard entries.
type metaEntry struct {
	Shard int   `json:"s"`
	Gseqs []int `json:"seqs,omitempty"`
}

// metaCheckpoint is the full directory at one version, entries in global
// order.
type metaCheckpoint struct {
	Format   int         `json:"format"`
	Shards   int         `json:"shards"`
	Version  uint64      `json:"v"`
	NextGseq int         `json:"g"`
	ShardV   []uint64    `json:"sv"`
	Entries  []metaEntry `json:"entries"`
}

// shardVersionsLocked snapshots every shard's local database version.
func (c *Cluster) shardVersionsLocked() []uint64 {
	vs := make([]uint64, len(c.shards))
	for i, sh := range c.shards {
		vs[i] = sh.live().Version()
	}
	return vs
}

// createStoresLocked persists a freshly built cluster: one store.Create
// per shard, then the meta backend with its initial checkpoint. The
// target paths must be empty.
func (c *Cluster) createStoresLocked() error {
	for i, sh := range c.shards {
		be, err := store.OpenBackend(c.cfg.Backend, c.shardPath(i))
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		sdb, err := store.Create(be, sh.db, c.cfg.StoreOpts...)
		if err != nil {
			be.Close()
			return fmt.Errorf("shard %d: %w", i, err)
		}
		sh.sdb = sdb
	}
	mb, err := store.OpenBackend(c.cfg.Backend, c.metaPath())
	if err != nil {
		return fmt.Errorf("meta: %w", err)
	}
	if _, _, ok, _ := mb.LoadCheckpoint(); ok {
		mb.Close()
		return fmt.Errorf("meta: %w", store.ErrExists)
	}
	c.meta = mb
	if err := c.metaCheckpointLocked(); err != nil {
		return fmt.Errorf("meta: %w", err)
	}
	return nil
}

// appendMetaLocked journals one commit's directory transitions. A failure
// poisons the cluster: memory is ahead of the meta journal.
func (c *Cluster) appendMetaLocked(ops []metaOp) error {
	if c.meta == nil {
		return nil
	}
	rec := metaRecord{
		Version:  c.version,
		NextGseq: c.nextGseq,
		ShardV:   c.shardVersionsLocked(),
		Ops:      ops,
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return c.poison(err)
	}
	if err := c.meta.AppendRecord(data); err != nil {
		return c.poison(err)
	}
	if err := c.meta.Sync(); err != nil {
		return c.poison(err)
	}
	c.metaSince++
	if c.metaSince >= metaCheckpointEvery {
		// Like the store's automatic checkpoint: a failure must not fail
		// the commit — the record is durable, recovery just replays more.
		_ = c.metaCheckpointLocked()
	}
	return nil
}

// metaCheckpointLocked writes the full directory as the meta checkpoint,
// trimming the meta WAL.
func (c *Cluster) metaCheckpointLocked() error {
	ck := metaCheckpoint{
		Format:   metaFormat,
		Shards:   c.cfg.Shards,
		Version:  c.version,
		NextGseq: c.nextGseq,
		ShardV:   c.shardVersionsLocked(),
		Entries:  make([]metaEntry, len(c.dir.entries)),
	}
	for i, e := range c.dir.entries {
		ck.Entries[i] = metaEntry{Shard: e.shard, Gseqs: e.gseqs}
	}
	data, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	if err := c.meta.WriteCheckpoint(data, c.version); err != nil {
		return err
	}
	c.metaSince = 0
	return nil
}

// Open recovers a persisted cluster: the meta checkpoint's format is
// checked first, then every shard store replays its own checkpoint + WAL,
// the meta journal replays the directory, and the two are cross-checked
// (per-shard versions, group and stamp counts) before serving. cfg must
// name the same backend, path, and shard count the cluster was created
// with.
func Open(cfg Config) (*Cluster, error) {
	if cfg.Backend == "" {
		return nil, fmt.Errorf("shard: Open requires a persistence backend")
	}
	c, err := newCluster(cfg)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Cluster, error) {
		c.closeStoresLocked()
		return nil, err
	}
	mb, err := store.OpenBackend(cfg.Backend, c.metaPath())
	if err != nil {
		return fail(fmt.Errorf("meta: %w", err))
	}
	c.meta = mb
	data, _, ok, err := mb.LoadCheckpoint()
	if err != nil {
		return fail(fmt.Errorf("meta: %w", err))
	}
	if !ok {
		return fail(fmt.Errorf("meta: %w", store.ErrNoDatabase))
	}
	var ck metaCheckpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return fail(fmt.Errorf("meta: %w (%v)", store.ErrCorrupt, err))
	}
	if ck.Format != metaFormat {
		return fail(fmt.Errorf("%w: meta checkpoint format %d, want %d", ErrMetaFormat, ck.Format, metaFormat))
	}
	if ck.Shards != cfg.Shards {
		return fail(fmt.Errorf("shard: cluster has %d shards, config says %d", ck.Shards, cfg.Shards))
	}
	c.shards = make([]*shardHandle, cfg.Shards)
	for i := range c.shards {
		be, err := store.OpenBackend(cfg.Backend, c.shardPath(i))
		if err != nil {
			return fail(fmt.Errorf("shard %d: %w", i, err))
		}
		sdb, err := store.Open(be, c.rank, cfg.StoreOpts...)
		if err != nil {
			be.Close()
			return fail(fmt.Errorf("shard %d: %w", i, err))
		}
		c.shards[i] = &shardHandle{db: sdb.DB(), sdb: sdb}
	}
	c.dir = newDirectory(cfg.Shards)
	for _, me := range ck.Entries {
		if me.Shard < 0 || me.Shard >= cfg.Shards {
			return fail(fmt.Errorf("meta: entry shard %d: %w", me.Shard, store.ErrCorrupt))
		}
		c.dir.append(&entry{shard: me.Shard, gseqs: me.Gseqs})
	}
	c.version = ck.Version
	c.nextGseq = ck.NextGseq
	shardV := ck.ShardV

	// Replay the directory transitions journaled after the checkpoint.
	if _, err := mb.TailRecords(0, func(raw []byte) error {
		var rec metaRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("%w (%v)", store.ErrCorrupt, err)
		}
		if rec.Version <= c.version {
			return nil // trim lost to a crash; already in the checkpoint
		}
		if rec.Version != c.version+1 {
			return fmt.Errorf("meta record v%d after v%d: %w", rec.Version, c.version, store.ErrCorrupt)
		}
		if err := c.dir.replay(rec.Ops, cfg.Shards); err != nil {
			return err
		}
		c.version = rec.Version
		c.nextGseq = rec.NextGseq
		shardV = rec.ShardV
		return nil
	}); err != nil {
		return fail(fmt.Errorf("meta: %w", err))
	}

	// Cross-check the independently recovered shards against the
	// directory: versions, group counts, per-group stamp counts.
	if len(shardV) != cfg.Shards {
		return fail(fmt.Errorf("meta: %d shard versions for %d shards: %w", len(shardV), cfg.Shards, store.ErrCorrupt))
	}
	for i, sh := range c.shards {
		if v := sh.live().Version(); v != shardV[i] {
			return fail(fmt.Errorf("%w: shard %d at v%d, directory expects v%d", ErrInconsistent, i, v, shardV[i]))
		}
		if got, want := sh.live().NumGroups(), c.dir.perShard[i].Len(); got != want {
			return fail(fmt.Errorf("%w: shard %d holds %d groups, directory expects %d", ErrInconsistent, i, got, want))
		}
	}
	for gi, e := range c.dir.entries {
		x := c.shards[e.shard].live().GroupAt(e.local)
		if len(x.RealTuples()) != len(e.gseqs) {
			return fail(fmt.Errorf("%w: group %d has %d real alternatives, directory holds %d stamps",
				ErrInconsistent, gi, len(x.RealTuples()), len(e.gseqs)))
		}
	}

	c.publishLocked()
	return c, nil
}

// replay applies one commit's directory transitions during Open.
func (d *directory) replay(ops []metaOp, shards int) error {
	for _, op := range ops {
		switch op.Op {
		case "ins":
			if op.Shard < 0 || op.Shard >= shards {
				return fmt.Errorf("ins shard %d: %w", op.Shard, store.ErrCorrupt)
			}
			d.append(&entry{shard: op.Shard, gseqs: op.Gseqs})
		case "abs":
			if op.Shard < 0 || op.Shard >= shards {
				return fmt.Errorf("abs shard %d: %w", op.Shard, store.ErrCorrupt)
			}
			d.append(&entry{shard: op.Shard})
		case "del":
			if op.Index < 0 || op.Index >= len(d.entries) {
				return fmt.Errorf("del index %d: %w", op.Index, store.ErrCorrupt)
			}
			d.removeGlobal(op.Index)
		case "clp":
			if op.Index < 0 || op.Index >= len(d.entries) {
				return fmt.Errorf("clp index %d: %w", op.Index, store.ErrCorrupt)
			}
			if op.Choice < 0 {
				return fmt.Errorf("clp choice %d: %w", op.Choice, store.ErrCorrupt)
			}
			d.entries[op.Index].collapse(op.Choice)
		default:
			return fmt.Errorf("meta op %q: %w", op.Op, store.ErrCorrupt)
		}
	}
	return nil
}
