package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"github.com/probdb/topkclean/internal/uncertain"
)

// Record is one WAL entry, keyed by the database version the commit
// produced. "build" carries the full wire encoding of the database (the
// initial state Create journals); "mutate" carries the logical operations
// of one commit — a single mutation, a whole Batch, or the collapses of an
// applied cleaning — exactly as they succeeded, so replaying them cannot
// fail and cannot diverge. Journaling operations rather than bytes is what
// keeps records small and replay bit-identical; see DESIGN.md ("Storage").
//
// Mutate records are JSON. Create writes the build record in binary —
// buildTag, the version as a uvarint, then the topkclean-wire/v2 bytes —
// so the full state never passes through encoding/json; build records
// that earlier versions wrote as JSON (DB holding the v1 wire document)
// still replay.
type Record struct {
	Version uint64          `json:"v"`
	Op      string          `json:"op"` // build | mutate
	DB      json.RawMessage `json:"db,omitempty"`
	Ops     []Op            `json:"ops,omitempty"`
}

// buildTag opens a binary build record. Every JSON record starts with '{'.
const buildTag = 'B'

// DecodeRecord parses one raw WAL record payload. A binary build record's
// DB aliases raw.
func DecodeRecord(raw []byte) (Record, error) {
	if len(raw) > 0 && raw[0] == buildTag {
		v, n := binary.Uvarint(raw[1:])
		if n <= 0 {
			return Record{}, fmt.Errorf("%w: build record version unreadable", ErrCorrupt)
		}
		return Record{Version: v, Op: "build", DB: raw[1+n:]}, nil
	}
	var rec Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return rec, nil
}

// Op is one logical mutation inside a "mutate" record.
type Op struct {
	Op     string    `json:"op"` // insert | insert_absent | delete | reweight | collapse
	Name   string    `json:"name,omitempty"`
	Tuples []OpTuple `json:"tuples,omitempty"`
	Group  int       `json:"group"`
	Probs  []float64 `json:"probs,omitempty"`
	Choice int       `json:"choice"`

	// Seqs holds explicit tie-break stamps for an "insert" issued through
	// InsertXTupleSeq (the sharded engine's path); nil for plain inserts.
	// Replay must restore them: a shard's rank order depends on the global
	// stamps, not on local arrival order.
	Seqs []int `json:"seqs,omitempty"`
}

// OpTuple is the caller-supplied part of an inserted alternative.
type OpTuple struct {
	ID    string    `json:"id"`
	Attrs []float64 `json:"attrs,omitempty"`
	Prob  float64   `json:"prob"`
}

// options configure a store's durability/checkpoint policy.
type options struct {
	checkpointEvery int
	fsync           bool
}

// Option configures Create/Open.
type Option func(*options)

// defaultCheckpointEvery bounds recovery time: replaying a mutation record
// costs roughly one incremental mutation (~µs), so a few hundred records
// keep reopen well under checkpoint-encode cost while amortizing the O(n)
// checkpoint across them.
const defaultCheckpointEvery = 256

// WithCheckpointEvery sets how many WAL records accumulate before the
// store writes a fresh checkpoint and resets the log. 0 disables automatic
// checkpoints (Close and Checkpoint still write one).
func WithCheckpointEvery(n int) Option {
	return func(o *options) { o.checkpointEvery = n }
}

// WithNoFsync stops the store from fsyncing after every journaled commit:
// records still reach the backend in order, but the crash-durable tail
// lags by whatever the OS buffers (a graceful Close still syncs). This
// trades the last few commits under power loss for the per-commit fsync
// cost — see BenchmarkWALAppend for the measured gap, and DESIGN.md
// ("Storage") for when batching beats dropping the fsync.
func WithNoFsync() Option {
	return func(o *options) { o.fsync = false }
}

// DB is a durable database handle: the live *uncertain.Database plus the
// journal that makes its commits survive restarts. Reads (queries, engine
// snapshots) go straight to DB(); every mutation must commit through the
// store's Batch — or be journaled with JournalCleaning — so the WAL stays
// a complete history. A commit that reaches the backend
// out of version order (the signature of an out-of-band mutation) poisons
// the store rather than persisting a history with a hole in it.
//
// A DB is safe for concurrent use; journaled commits serialize on its own
// mutex (on top of the database's writer lock), so WAL order always equals
// commit order.
type DB struct {
	mu       sync.Mutex
	b        Backend
	db       *uncertain.Database
	opts     options
	last     uint64 // version of the last journaled commit
	ckptVer  uint64 // version of the last written checkpoint
	sinceCk  int    // records journaled since that checkpoint
	poisoned error
}

func buildOptions(opts []Option) options {
	o := options{checkpointEvery: defaultCheckpointEvery, fsync: true}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Create journals a freshly built database as the backend's initial state:
// one binary "build" record carrying the full wire encoding, keyed by the
// database's current version. The backend must be empty (ErrExists
// otherwise). The database is adopted by the store — mutate it through
// the returned handle only.
func Create(b Backend, db *uncertain.Database, opts ...Option) (*DB, error) {
	if db == nil || !db.Built() {
		return nil, uncertain.ErrNotBuilt
	}
	if st, err := b.JournalStat(); err != nil {
		return nil, err
	} else if st.HasCheckpoint || st.Tail > 0 {
		return nil, ErrExists
	}
	rec, err := uncertain.AppendWire(binary.AppendUvarint([]byte{buildTag}, db.Version()), db)
	if err != nil {
		return nil, err
	}
	d := &DB{b: b, db: db, opts: buildOptions(opts), last: db.Version()}
	if err := b.AppendRecord(rec); err != nil {
		return nil, err
	}
	if err := b.Sync(); err != nil {
		return nil, err
	}
	d.sinceCk = 1
	return d, nil
}

// Open recovers the database a backend holds: load the newest checkpoint,
// replay the WAL records after it, and verify the version chain is
// gapless. The recovered database is bit-identical to the journaled one —
// same rank order, version counter, and identity/tie-break counters —
// so every query answers exactly as it would have before the restart.
// rank must be the ranking function the database was built with (it is
// configuration, not data; DecodeWire verifies the persisted rank order
// against it). Returns ErrNoDatabase on an empty backend.
func Open(b Backend, rank uncertain.RankFunc, opts ...Option) (*DB, error) {
	var db *uncertain.Database
	ckptVer := uint64(0)
	if data, v, ok, err := b.LoadCheckpoint(); err != nil {
		return nil, err
	} else if ok {
		db, err = uncertain.DecodeWire(data, rank)
		if err != nil {
			return nil, fmt.Errorf("%w: checkpoint: %v", ErrCorrupt, err)
		}
		if db.Version() != v {
			return nil, fmt.Errorf("%w: checkpoint labeled v%d decodes to v%d", ErrCorrupt, v, db.Version())
		}
		ckptVer = v
	}
	r := &Replayer{DB: db, Rank: rank}
	if _, err := b.TailRecords(0, r.Apply); err != nil {
		return nil, err
	}
	if r.DB == nil {
		return nil, ErrNoDatabase
	}
	return &DB{b: b, db: r.DB, opts: buildOptions(opts), last: r.DB.Version(), ckptVer: ckptVer, sinceCk: r.Replayed}, nil
}

// Replayer applies raw WAL records to a database, enforcing the version
// chain. It is the one replay path: Open drives it over the whole journal,
// and a tailing replica (internal/replica) drives it record by record as
// the journal grows. Records at or below DB's current version are skipped
// (the checkpoint overlap), a "build" record seeds DB when it is nil, and
// a record that skips past DB's next version fails with an error wrapping
// both ErrCorrupt and ErrGap — fatal during Open, a resync-from-checkpoint
// signal for a replica.
type Replayer struct {
	DB       *uncertain.Database
	Rank     uncertain.RankFunc
	Replayed int // records applied (not skipped) so far
}

// Apply decodes and applies one record; see Replayer.
func (r *Replayer) Apply(raw []byte) error {
	rec, err := DecodeRecord(raw)
	if err != nil {
		return fmt.Errorf("record after v%d: %w", versionOf(r.DB), err)
	}
	switch rec.Op {
	case "build":
		if r.DB == nil {
			d, err := uncertain.DecodeWire(rec.DB, r.Rank)
			if err != nil {
				return fmt.Errorf("%w: build record: %v", ErrCorrupt, err)
			}
			if d.Version() != rec.Version {
				return fmt.Errorf("%w: build record labeled v%d decodes to v%d", ErrCorrupt, rec.Version, d.Version())
			}
			r.DB = d
			r.Replayed++
			return nil
		}
		if rec.Version <= r.DB.Version() {
			return nil // superseded by the checkpoint
		}
		return fmt.Errorf("%w: build record at v%d after v%d (%w)", ErrCorrupt, rec.Version, r.DB.Version(), ErrGap)
	case "mutate":
		if r.DB == nil {
			return fmt.Errorf("%w: mutation record v%d before any database (%w)", ErrCorrupt, rec.Version, ErrGap)
		}
		if rec.Version <= r.DB.Version() {
			return nil // already in the checkpoint (crash between checkpoint and WAL trim)
		}
		if rec.Version != r.DB.Version()+1 {
			return fmt.Errorf("%w: record v%d after v%d (%w)", ErrCorrupt, rec.Version, r.DB.Version(), ErrGap)
		}
		if err := r.DB.Batch(func(ub *uncertain.Batch) error {
			for _, op := range rec.Ops {
				if err := applyOp(ub, op); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return fmt.Errorf("%w: replaying v%d: %v", ErrCorrupt, rec.Version, err)
		}
		if r.DB.Version() != rec.Version {
			return fmt.Errorf("%w: replay of v%d landed at v%d", ErrCorrupt, rec.Version, r.DB.Version())
		}
		r.Replayed++
		return nil
	default:
		return fmt.Errorf("%w: unknown record op %q", ErrCorrupt, rec.Op)
	}
}

func versionOf(db *uncertain.Database) uint64 {
	if db == nil {
		return 0
	}
	return db.Version()
}

// applyOp replays one logical operation under a batch — shared by Open's
// replay and nothing else: the live path journals what already succeeded.
func applyOp(b *uncertain.Batch, op Op) error {
	switch op.Op {
	case "insert":
		ts := make([]uncertain.Tuple, len(op.Tuples))
		for i, ot := range op.Tuples {
			ts[i] = uncertain.Tuple{ID: ot.ID, Attrs: ot.Attrs, Prob: ot.Prob}
		}
		if op.Seqs != nil {
			return b.InsertXTupleSeq(op.Name, op.Seqs, ts...)
		}
		return b.InsertXTuple(op.Name, ts...)
	case "insert_absent":
		return b.InsertAbsentXTuple(op.Name)
	case "delete":
		return b.DeleteXTuple(op.Group)
	case "reweight":
		return b.Reweight(op.Group, op.Probs)
	case "collapse":
		return b.Collapse(op.Group, op.Choice)
	default:
		return fmt.Errorf("unknown op %q", op.Op)
	}
}

// DB returns the live database for reads: build an Engine over it, pin
// snapshots from it. Do not mutate it directly — a commit the journal
// never sees poisons the store at the next journaled write.
func (d *DB) DB() *uncertain.Database { return d.db }

// Version returns the version of the last journaled commit.
func (d *DB) Version() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.last
}

// SinceCheckpoint returns how many WAL records the next recovery would
// replay, and the version of the newest checkpoint (0 when none exists
// yet and recovery starts from the build record).
func (d *DB) SinceCheckpoint() (records int, checkpointVersion uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sinceCk, d.ckptVer
}

// Batch mirrors uncertain.Database.Batch with journaling: fn's successful
// mutations commit as one version and are appended as one WAL record.
// Like the underlying Batch there is no rollback across ops — if fn
// errors after some mutations succeeded, those stay applied and committed,
// the record holds exactly the successful prefix, and the error is
// returned. The record is appended (and, unless WithNoFsync, synced)
// before Batch returns, so a caller that saw success can rely on the
// commit surviving a crash.
func (d *DB) Batch(fn func(*Batch) error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.poisoned != nil {
		return fmt.Errorf("%w (%v)", ErrPoisoned, d.poisoned)
	}
	sb := &Batch{}
	err := d.db.Batch(func(ub *uncertain.Batch) error {
		sb.ub = ub
		return fn(sb)
	})
	if len(sb.ops) > 0 {
		if jerr := d.journal(Record{Version: d.db.Version(), Op: "mutate", Ops: sb.ops}); jerr != nil {
			return jerr
		}
	}
	return err
}

// JournalCleaning records a cleaning that was already applied to the live
// database (Engine.ApplyCleaning commits the collapses itself) as one
// "mutate" record of collapse ops. choices maps x-tuple index to the
// chosen alternative — Outcome.Choices verbatim. The caller must hold the
// apply and this call under one writer section (no other journaled commit
// in between); the store verifies that by version continuity and poisons
// itself on a mismatch. A nil/empty choices map (nothing resolved, no
// commit) is a no-op.
func (d *DB) JournalCleaning(choices map[int]int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.poisoned != nil {
		return fmt.Errorf("%w (%v)", ErrPoisoned, d.poisoned)
	}
	if len(choices) == 0 {
		return nil
	}
	groups := make([]int, 0, len(choices))
	for l := range choices {
		groups = append(groups, l)
	}
	sort.Ints(groups) // canonical record bytes; collapse order is state-irrelevant
	ops := make([]Op, len(groups))
	for i, l := range groups {
		ops[i] = Op{Op: "collapse", Group: l, Choice: choices[l]}
	}
	return d.journal(Record{Version: d.db.Version(), Op: "mutate", Ops: ops})
}

// journal appends one record for the commit that just happened, enforcing
// that records chain gaplessly (version = last+1). Any backend failure —
// and any chain break, which means the database was mutated behind the
// store's back — poisons the store: the memory state is then ahead of the
// journal and appending further records would persist a history with a
// hole. Callers hold d.mu.
func (d *DB) journal(rec Record) error {
	// Every failure below returns (and records) an ErrPoisoned-wrapped
	// error — including the first one, so callers can classify even the
	// request that hit the disk failure as a server-side fault rather
	// than a bad request.
	if rec.Version != d.last+1 {
		d.poisoned = fmt.Errorf("commit v%d after journaled v%d: database mutated outside the store", rec.Version, d.last)
		return fmt.Errorf("%w (%v)", ErrPoisoned, d.poisoned)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		d.poisoned = err
		return fmt.Errorf("%w (%v)", ErrPoisoned, err)
	}
	if err := d.b.AppendRecord(data); err != nil {
		d.poisoned = err
		return fmt.Errorf("%w (%v)", ErrPoisoned, err)
	}
	if d.opts.fsync {
		if err := d.b.Sync(); err != nil {
			d.poisoned = err
			return fmt.Errorf("%w (%v)", ErrPoisoned, err)
		}
	}
	d.last = rec.Version
	d.sinceCk++
	if d.opts.checkpointEvery > 0 && d.sinceCk >= d.opts.checkpointEvery {
		// A failed automatic checkpoint must not fail the commit that
		// triggered it — the commit is journaled and durable, and the WAL
		// stays intact, recovery just replays more records. sinceCk keeps
		// counting, so the next commit retries; Close and Checkpoint
		// surface persistent failures.
		_ = d.checkpointLocked()
	}
	return nil
}

// Checkpoint writes a full snapshot of the current version and resets the
// WAL, regardless of the automatic policy.
func (d *DB) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.poisoned != nil {
		return fmt.Errorf("%w (%v)", ErrPoisoned, d.poisoned)
	}
	return d.checkpointLocked()
}

// checkpointLocked encodes the current epoch (via the snapshot machinery,
// so concurrent queries keep reading) and hands it to the backend.
func (d *DB) checkpointLocked() error {
	snap := d.db.Snapshot()
	data, err := uncertain.EncodeWire(snap)
	if err != nil {
		return err
	}
	if err := d.b.WriteCheckpoint(data, snap.Version()); err != nil {
		return err
	}
	d.ckptVer = snap.Version()
	d.sinceCk = 0
	return nil
}

// Close flushes and releases the store: a final checkpoint if any records
// accumulated since the last one (so the next Open replays nothing), then
// backend close. A poisoned store skips the checkpoint — its journal is
// still the longest consistent prefix — and just closes.
func (d *DB) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var err error
	if d.poisoned == nil && d.sinceCk > 0 {
		err = d.checkpointLocked()
	}
	if cerr := d.b.Close(); err == nil {
		err = cerr
	}
	return err
}

// Batch journals the successful mutations fn issues. Valid only inside
// DB.Batch's callback.
type Batch struct {
	ub  *uncertain.Batch
	ops []Op
}

// InsertXTuple inserts and journals a new x-tuple. The journaled record
// holds the caller-supplied alternatives (the materialized null and the
// scores are re-derived deterministically on replay).
func (b *Batch) InsertXTuple(name string, tuples ...uncertain.Tuple) error {
	if err := b.ub.InsertXTuple(name, tuples...); err != nil {
		return err
	}
	ots := make([]OpTuple, len(tuples))
	for i, t := range tuples {
		ots[i] = OpTuple{ID: t.ID, Attrs: append([]float64(nil), t.Attrs...), Prob: t.Prob}
	}
	b.ops = append(b.ops, Op{Op: "insert", Name: name, Tuples: ots})
	return nil
}

// InsertXTupleSeq inserts with explicit tie-break stamps and journals
// them, so replay reproduces the same rank order (the sharded engine's
// insert path; see uncertain.Batch.InsertXTupleSeq).
func (b *Batch) InsertXTupleSeq(name string, seqs []int, tuples ...uncertain.Tuple) error {
	if err := b.ub.InsertXTupleSeq(name, seqs, tuples...); err != nil {
		return err
	}
	ots := make([]OpTuple, len(tuples))
	for i, t := range tuples {
		ots[i] = OpTuple{ID: t.ID, Attrs: append([]float64(nil), t.Attrs...), Prob: t.Prob}
	}
	b.ops = append(b.ops, Op{Op: "insert", Name: name, Tuples: ots, Seqs: append([]int(nil), seqs...)})
	return nil
}

// InsertAbsentXTuple inserts and journals an absent x-tuple.
func (b *Batch) InsertAbsentXTuple(name string) error {
	if err := b.ub.InsertAbsentXTuple(name); err != nil {
		return err
	}
	b.ops = append(b.ops, Op{Op: "insert_absent", Name: name})
	return nil
}

// DeleteXTuple deletes and journals.
func (b *Batch) DeleteXTuple(l int) error {
	if err := b.ub.DeleteXTuple(l); err != nil {
		return err
	}
	b.ops = append(b.ops, Op{Op: "delete", Group: l})
	return nil
}

// Reweight reweights and journals.
func (b *Batch) Reweight(l int, probs []float64) error {
	if err := b.ub.Reweight(l, probs); err != nil {
		return err
	}
	b.ops = append(b.ops, Op{Op: "reweight", Group: l, Probs: append([]float64(nil), probs...)})
	return nil
}

// Collapse collapses and journals.
func (b *Batch) Collapse(l, choice int) error {
	if err := b.ub.Collapse(l, choice); err != nil {
		return err
	}
	b.ops = append(b.ops, Op{Op: "collapse", Group: l, Choice: choice})
	return nil
}
