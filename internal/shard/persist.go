package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"

	"github.com/probdb/topkclean/internal/store"
	"github.com/probdb/topkclean/internal/uncertain"
)

// Persistence layout: a durable cluster is one store.Journal on one
// backend at Config.Path, the same commit policy a store.DB runs on.
//
// Each commit appends one "mutate" record whose ops are the batch's
// successful mutations in global group indices, exactly as the unsharded
// store journals them. Replay runs them back through the router: placement
// is a pure function of an x-tuple's first global stamp, and the router
// redraws the same stamps from the restored global sequence counter, so
// every shard, stamp and placement comes back bit-identical. A sharded
// commit is therefore one append and one fsync, and every crash point
// recovers to the last complete commit, exactly like an unsharded store.
//
// The checkpoint is one blob: a format number, N, the cluster version,
// the global sequence counter, each global group's shard in global order,
// then the N shard snapshots' wire encodings, each behind an 8-byte
// length. Local indices and stamps are not stored: a group's local index
// is its rank among same-shard groups in global order, and its stamps are
// its shard's tie-break stamps.
//
// Formats 1 and 2 kept a store per shard at Path/shard-i beside a cluster
// journal at Path/meta. Open refuses such a layout with ErrMetaFormat
// before reading it; it must be re-created.

// checkpointFormat is the checkpoint format this package writes and reads.
const checkpointFormat = 3

// ErrMetaFormat is returned by Open when the persisted cluster is not in
// this package's format: a sharded layout written by an older release,
// which must be re-created rather than reinterpreted.
var ErrMetaFormat = errors.New("shard: unsupported sharded layout format; re-create the database")

// createJournalLocked persists a freshly built cluster: a journal at
// Config.Path whose initial checkpoint holds the whole cluster. The
// backend must be empty.
func (c *Cluster) createJournalLocked() error {
	be, err := store.OpenBackend(c.cfg.Backend, c.cfg.Path)
	if err != nil {
		return err
	}
	if c.j, err = store.CreateJournal(be, c.encodeLocked, c.cfg.StoreOpts...); err != nil {
		be.Close()
		return err
	}
	return nil
}

// encodeLocked is the journal's checkpoint: the layout above, taken from
// the writer's current state (every shard's snapshot is current under
// the writer lock, published or not).
func (c *Cluster) encodeLocked() ([]byte, uint64, error) {
	buf := binary.AppendUvarint(nil, checkpointFormat)
	buf = binary.AppendUvarint(buf, uint64(len(c.shards)))
	buf = binary.AppendUvarint(buf, c.version)
	buf = binary.AppendUvarint(buf, uint64(c.nextGseq))
	buf = binary.AppendUvarint(buf, uint64(c.dir.view.Len()))
	for _, e := range c.dir.view.All() {
		buf = binary.AppendUvarint(buf, uint64(e.shard))
	}
	for _, sh := range c.shards {
		at := len(buf)
		buf = binary.LittleEndian.AppendUint64(buf, 0)
		var err error
		if buf, err = uncertain.AppendWire(buf, sh.db.Snapshot()); err != nil {
			return nil, 0, err
		}
		binary.LittleEndian.PutUint64(buf[at:], uint64(len(buf)-at-8))
	}
	return buf, c.version, nil
}

// decode restores the cluster a checkpoint taken at version describes:
// the shard databases, the directory and the counters.
func (c *Cluster) decode(data []byte, version uint64) error {
	r := ckptReader{b: data}
	if f := r.uvarint(); r.err == nil && f != checkpointFormat {
		return fmt.Errorf("%w: checkpoint format %d, want %d", ErrMetaFormat, f, checkpointFormat)
	}
	if n := r.uvarint(); r.err == nil && n != uint64(c.cfg.Shards) {
		return fmt.Errorf("shard: cluster has %d shards, config says %d", n, c.cfg.Shards)
	}
	c.version = r.uvarint()
	c.nextGseq = int(r.uvarint())
	m := r.uvarint()
	if r.err == nil && m > uint64(len(r.b)) { // one byte per group at least
		r.err = fmt.Errorf("%d groups in %d bytes", m, len(r.b))
	}
	place := make([]int, 0, m)
	for range m {
		if s := r.uvarint(); s < uint64(c.cfg.Shards) {
			place = append(place, int(s))
		} else if r.err == nil {
			r.err = fmt.Errorf("group %d on shard %d", len(place), s)
		}
	}
	c.shards = make([]*shardHandle, c.cfg.Shards)
	for i := range c.shards {
		wire := r.bytes()
		if r.err != nil {
			break
		}
		db, err := uncertain.DecodeWire(wire, c.rank)
		if err != nil {
			return fmt.Errorf("%w: shard %d: %v", store.ErrCorrupt, i, err)
		}
		c.shards[i] = &shardHandle{db: db}
	}
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b))
	}
	if r.err == nil && c.version != version {
		r.err = fmt.Errorf("labeled v%d, holds v%d", version, c.version)
	}
	if r.err != nil {
		return fmt.Errorf("%w: cluster checkpoint: %v", store.ErrCorrupt, r.err)
	}

	// Rebuild the directory: local indices from global order.
	c.dir = newDirectory(c.cfg.Shards)
	for gi, s := range place {
		db := c.shards[s].db
		local := c.dir.perShard[s].Len()
		if local >= db.NumGroups() {
			return fmt.Errorf("%w: group %d: shard %d holds only %d groups", store.ErrCorrupt, gi, s, db.NumGroups()-1)
		}
		c.dir.append(s)
	}
	for s, sh := range c.shards {
		if got, want := sh.db.NumGroups(), c.dir.perShard[s].Len(); got != want || sh.db.GroupAt(0).Name != sentinelName {
			return fmt.Errorf("%w: shard %d holds %d groups, directory places %d (sentinel included)", store.ErrCorrupt, s, got, want)
		}
	}
	return nil
}

// ckptReader reads a checkpoint blob; the first failure sticks.
type ckptReader struct {
	b   []byte
	err error
}

func (r *ckptReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = errors.New("truncated")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *ckptReader) bytes() []byte {
	if r.err == nil && len(r.b) < 8 {
		r.err = errors.New("truncated")
	}
	if r.err != nil {
		return nil
	}
	n := binary.LittleEndian.Uint64(r.b)
	if n > uint64(len(r.b)-8) {
		r.err = errors.New("truncated shard")
		return nil
	}
	out := r.b[8 : 8+n]
	r.b = r.b[8+n:]
	return out
}

// replay applies one journaled commit during Open: the record's ops run
// through the router, which redraws their stamps and placements. The
// journal is not attached yet, so the batch records nothing.
func (c *Cluster) replay(rec store.Record) error {
	b := &Batch{c: c}
	if err := store.ApplyOps(b, rec.Ops); err != nil {
		return err
	}
	c.version++
	if c.version != rec.Version {
		return fmt.Errorf("replay of v%d landed at v%d", rec.Version, c.version)
	}
	return nil
}

// Open recovers a persisted cluster: it loads the checkpoint, decodes
// every shard, rebuilds the directory, replays the journal's tail through
// the router and publishes. cfg must name the same backend, path, and
// shard count the cluster was created with. A layout of formats 1 and 2
// is refused with ErrMetaFormat before anything of it is read.
func Open(cfg Config) (*Cluster, error) {
	if cfg.Backend == "" {
		return nil, fmt.Errorf("shard: Open requires a persistence backend")
	}
	c, err := newCluster(cfg)
	if err != nil {
		return nil, err
	}
	if old, err := store.OpenBackendReadOnly(cfg.Backend, filepath.Join(cfg.Path, "meta")); err == nil {
		old.Close()
		return nil, fmt.Errorf("%w: %s holds a per-shard layout", ErrMetaFormat, cfg.Path)
	}
	be, err := store.OpenBackend(cfg.Backend, cfg.Path)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.j, err = store.OpenJournal(be, c.decode, c.replay, c.encodeLocked, cfg.StoreOpts...); err != nil {
		be.Close()
		return nil, err
	}
	c.publishLocked()
	return c, nil
}

// SinceCheckpoint returns how many journal records the next recovery
// would replay and the version of the newest checkpoint; zeros for a
// cluster without persistence. It waits for a commit in progress.
func (c *Cluster) SinceCheckpoint() (records int, checkpointVersion uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.j == nil {
		return 0, 0
	}
	return c.j.SinceCheckpoint()
}
