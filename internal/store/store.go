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
}

// OpTuple is the caller-supplied part of an inserted alternative.
type OpTuple struct {
	ID    string    `json:"id"`
	Attrs []float64 `json:"attrs,omitempty"`
	Prob  float64   `json:"prob"`
}

// OpTuples copies the caller-supplied part of inserted alternatives into
// an insert op; the materialized null and the scores are re-derived
// deterministically on replay.
func OpTuples(tuples []uncertain.Tuple) []OpTuple {
	ots := make([]OpTuple, len(tuples))
	for i, t := range tuples {
		ots[i] = OpTuple{ID: t.ID, Attrs: append([]float64(nil), t.Attrs...), Prob: t.Prob}
	}
	return ots
}

// Mutator is the logical mutation surface every op list runs through:
// *uncertain.Batch, this package's journaling Batch, and the sharded
// cluster's Batch (internal/shard), which addresses groups by global
// index. Replay (ApplyOps) and the daemon's /mutate decoder drive it.
type Mutator interface {
	InsertXTuple(name string, tuples ...uncertain.Tuple) error
	InsertAbsentXTuple(name string) error
	DeleteXTuple(l int) error
	Reweight(l int, probs []float64) error
	Collapse(l, choice int) error
}

// ApplyOps replays a record's logical operations, in order, through m. The
// live path journals only what already succeeded, so replay of a journal
// this package wrote cannot fail.
func ApplyOps(m Mutator, ops []Op) error {
	for _, op := range ops {
		var err error
		switch op.Op {
		case "insert":
			ts := make([]uncertain.Tuple, len(op.Tuples))
			for i, ot := range op.Tuples {
				ts[i] = uncertain.Tuple{ID: ot.ID, Attrs: ot.Attrs, Prob: ot.Prob}
			}
			err = m.InsertXTuple(op.Name, ts...)
		case "insert_absent":
			err = m.InsertAbsentXTuple(op.Name)
		case "delete":
			err = m.DeleteXTuple(op.Group)
		case "reweight":
			err = m.Reweight(op.Group, op.Probs)
		case "collapse":
			err = m.Collapse(op.Group, op.Choice)
		default:
			err = fmt.Errorf("unknown op %q", op.Op)
		}
		if err != nil {
			return err
		}
	}
	return nil
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
// commit order. The append, sync, checkpoint and poison policy is its
// Journal's.
type DB struct {
	mu sync.Mutex
	db *uncertain.Database
	j  *Journal
}

// encode is the journal's checkpoint: the current epoch, encoded through
// the snapshot machinery so concurrent queries keep reading.
func (d *DB) encode() ([]byte, uint64, error) {
	snap := d.db.Snapshot()
	data, err := uncertain.EncodeWire(snap)
	return data, snap.Version(), err
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
	if err := checkEmpty(b); err != nil {
		return nil, err
	}
	rec, err := uncertain.AppendWire(binary.AppendUvarint([]byte{buildTag}, db.Version()), db)
	if err != nil {
		return nil, err
	}
	if err := b.AppendRecord(rec); err != nil {
		return nil, err
	}
	if err := b.Sync(); err != nil {
		return nil, err
	}
	d := &DB{db: db}
	d.j = &Journal{b: b, opts: buildOptions(opts), checkpoint: d.encode, last: db.Version(), sinceCk: 1}
	return d, nil
}

// Open recovers the database a backend holds: OpenJournal with a
// DBReplay's load and apply. The recovered database is bit-identical to
// the journaled one — same rank order, version counter, and
// identity/tie-break counters — so every query answers exactly as it
// would have before the restart. rank must be the ranking function the
// database was built with (it is configuration, not data; DecodeWire
// verifies the persisted rank order against it). Returns ErrNoDatabase on
// an empty backend. Open does not write to b.
func Open(b Backend, rank uncertain.RankFunc, opts ...Option) (*DB, error) {
	r := NewDBReplay(rank)
	d := &DB{}
	j, err := OpenJournal(b, r.load, r.apply, d.encode, opts...)
	if err != nil {
		return nil, err
	}
	d.db, d.j = r.DB, j
	return d, nil
}

// DBReplay is the replay of one unsharded database: the load and apply
// that Open hands to OpenJournal, and the Replay a tailing replica
// (internal/replica) recovers with and then keeps stepping. DB is the
// database once seeded.
type DBReplay struct {
	Replay
	DB   *uncertain.Database
	rank uncertain.RankFunc
}

// NewDBReplay returns an unseeded replay of a database built with rank.
func NewDBReplay(rank uncertain.RankFunc) *DBReplay {
	r := &DBReplay{rank: rank}
	r.Replay = Replay{load: r.load, apply: r.apply}
	return r
}

// load decodes a checkpoint or build record, labeled with version.
func (r *DBReplay) load(data []byte, version uint64) error {
	db, err := uncertain.DecodeWire(data, r.rank)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if db.Version() != version {
		return fmt.Errorf("%w: labeled v%d, decodes to v%d", ErrCorrupt, version, db.Version())
	}
	r.DB = db
	return nil
}

// apply commits a mutate record's ops as one batch.
func (r *DBReplay) apply(rec Record) error {
	if err := r.DB.Batch(func(ub *uncertain.Batch) error { return ApplyOps(ub, rec.Ops) }); err != nil {
		return err
	}
	if r.DB.Version() != rec.Version {
		return fmt.Errorf("landed at v%d", r.DB.Version())
	}
	return nil
}

// DB returns the live database for reads: build an Engine over it, pin
// snapshots from it. Do not mutate it directly — a commit the journal
// never sees poisons the store at the next journaled write.
func (d *DB) DB() *uncertain.Database { return d.db }

// Version returns the version of the last journaled commit.
func (d *DB) Version() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.j.last
}

// SinceCheckpoint returns how many WAL records the next recovery would
// replay, and the version of the newest checkpoint (0 when none exists
// yet and recovery starts from the build record).
func (d *DB) SinceCheckpoint() (records int, checkpointVersion uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.j.SinceCheckpoint()
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
	if err := d.j.Err(); err != nil {
		return err
	}
	sb := &Batch{}
	err := d.db.Batch(func(ub *uncertain.Batch) error {
		sb.ub = ub
		return fn(sb)
	})
	if len(sb.ops) > 0 {
		if jerr := d.j.Append(Record{Version: d.db.Version(), Op: "mutate", Ops: sb.ops}); jerr != nil {
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
	if err := d.j.Err(); err != nil {
		return err
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
	return d.j.Append(Record{Version: d.db.Version(), Op: "mutate", Ops: ops})
}

// Checkpoint writes a full snapshot of the current version and resets the
// WAL, regardless of the automatic policy.
func (d *DB) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.j.Checkpoint()
}

// Close flushes and releases the store: a final checkpoint if any records
// accumulated since the last one (so the next Open replays nothing), then
// backend close. A poisoned store skips the checkpoint — its journal is
// still the longest consistent prefix — and just closes.
func (d *DB) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.j.Close()
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
	b.ops = append(b.ops, Op{Op: "insert", Name: name, Tuples: OpTuples(tuples)})
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
