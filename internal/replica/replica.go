// Package replica turns deterministic WAL replay into read replication: a
// Replica opens a store's backend read-only, recovers checkpoint + journal
// with the recovery store.Open runs (a store.DBReplay), and then tails the
// journal — polling for records past its applied version and running them
// through that replay's step, the one store.Open and a cluster's Open use. Because replay is bit-identical
// (same rank order, version counter, tie-break and identity counters; see
// PERSISTENCE.md), a follower's snapshot answers at version v are
// byte-identical to the leader's at version v: the replica never
// approximates, it just lags.
//
// The tail protocol is pull-only and writer-oblivious: the replica holds a
// shared lock (never the writer's), never truncates a torn tail (the
// writer may still be appending it — the replica just stops before it and
// retries), and never writes checkpoints. When the leader checkpoints and
// trims the journal past the replica's cursor, the replica detects the new
// journal generation (or a version gap) and re-syncs — recovers again,
// from the leader's checkpoint — replacing its database wholesale and
// bumping Generation so holders of the old database know to re-derive
// anything built on it.
package replica

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/probdb/topkclean/internal/store"
	"github.com/probdb/topkclean/internal/uncertain"
)

// Lag is how far a replica trails its leader: Versions counts journal
// records observed but not yet applied at the last poll's start (0 once a
// poll drains to the tail), Bytes is the journal distance between the
// replica's cursor and the journal end in the backend's cursor units
// (bytes for the file backend, records for the memory backend). A torn
// in-progress record counts toward Bytes — it is real, observable lag.
type Lag struct {
	Versions uint64 `json:"versions"`
	Bytes    int64  `json:"bytes"`
}

// options configure a Replica.
type options struct {
	poll time.Duration
}

// Option configures Open.
type Option func(*options)

// defaultPollInterval trades freshness for backend stat traffic: a stat is
// ~1µs, so even 25ms polling is noise, while keeping worst-case staleness
// well under human-visible latency.
const defaultPollInterval = 25 * time.Millisecond

// WithPollInterval sets how often the tailing loop checks the journal for
// growth.
func WithPollInterval(d time.Duration) Option {
	return func(o *options) {
		if d > 0 {
			o.poll = d
		}
	}
}

// Replica is a read-only, tailing view of a leader's store. DB returns the
// current replicated database — safe for building engines and pinning
// snapshots; never mutate it. All methods are safe for concurrent use; the
// tailing loop applies records under the database's own writer lock, so
// snapshot queries stay lock-free exactly as on the leader.
type Replica struct {
	b    store.Backend
	rank uncertain.RankFunc
	opts options

	db    atomic.Pointer[uncertain.Database]
	gen   atomic.Uint64 // bumps when a resync replaces the database
	ready atomic.Bool

	mu      sync.Mutex      // serializes Poll/Close; guards rep and cursor state
	rep     *store.DBReplay // the replay step db advances through
	jgen    uint64          // journal generation the cursor belongs to
	cursor  int64           // TailRecords cursor into that journal
	closed  bool
	resyncs atomic.Uint64

	lagMu   sync.Mutex
	lag     Lag
	lastErr error

	loopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// Open recovers the backend's current state (the recovery store.Open
// runs) and returns a replica positioned at the journal tail,
// ready to serve. It does not start tailing — call Start, or drive Poll
// directly for deterministic tests. Returns store.ErrNoDatabase when the
// backend holds nothing yet. The backend should come from
// store.OpenBackendReadOnly (or an equivalent read-only open); the replica
// adopts it and closes it on Close.
func Open(b store.Backend, rank uncertain.RankFunc, opts ...Option) (*Replica, error) {
	o := options{poll: defaultPollInterval}
	for _, opt := range opts {
		opt(&o)
	}
	r := &Replica{
		b:    b,
		rank: rank,
		opts: o,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.resyncLocked(); err != nil {
		return nil, err
	}
	r.ready.Store(true)
	return r, nil
}

// DB returns the current replicated database. After a resync (leader
// checkpointed past this replica) it is a different object — watch
// Generation to invalidate anything derived from an older one. Databases
// returned earlier remain valid, immutable-by-convention reads of an older
// state.
func (r *Replica) DB() *uncertain.Database { return r.db.Load() }

// Generation counts database replacements: it starts at 0 and bumps each
// time a resync swaps in a database rebuilt from the leader's checkpoint.
// Incremental tail application keeps the same database (and generation).
func (r *Replica) Generation() uint64 { return r.gen.Load() }

// Version returns the replicated database's current version.
func (r *Replica) Version() uint64 { return r.DB().Version() }

// Ready reports whether the replica has caught up to the journal tail at
// least once since Open. It is the follower's health gate.
func (r *Replica) Ready() bool { return r.ready.Load() }

// Resyncs counts checkpoint re-syncs (journal trimmed past this replica).
func (r *Replica) Resyncs() uint64 { return r.resyncs.Load() }

// Lag returns the replication lag observed by the most recent poll.
func (r *Replica) Lag() Lag {
	r.lagMu.Lock()
	defer r.lagMu.Unlock()
	return r.lag
}

// Err returns the most recent poll error, or nil if the last poll
// succeeded. A non-nil Err does not stop the loop — transient read races
// with the writer retry on the next tick.
func (r *Replica) Err() error {
	r.lagMu.Lock()
	defer r.lagMu.Unlock()
	return r.lastErr
}

// Poll runs one tail step: detect journal replacement (generation change
// or a cursor past the end), drain complete records through the replay
// step, and re-sync from the checkpoint when the journal can no longer
// supply the next version. It returns how many records it applied.
// Safe to call concurrently with queries; exported so tests (and callers
// that want explicit control) can drive replication deterministically.
func (r *Replica) Poll() (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, errors.New("replica: closed")
	}
	applied, err := r.pollLocked()
	r.lagMu.Lock()
	r.lastErr = err
	r.lagMu.Unlock()
	return applied, err
}

func (r *Replica) pollLocked() (int, error) {
	st, err := r.b.JournalStat()
	if err != nil {
		return 0, err
	}
	if st.Gen != r.jgen || st.Tail < r.cursor {
		// The journal was replaced or trimmed under us; the cursor is void.
		// Rescan from the start — replay skips already-applied versions, so
		// records surviving the trim (crash between checkpoint and trim)
		// are harmless.
		r.jgen, r.cursor = st.Gen, 0
	}
	startVer, before := r.rep.DB.Version(), r.rep.Replayed
	next, err := r.b.TailRecords(r.cursor, r.rep.Step)
	r.cursor = next
	applied := r.rep.Replayed - before
	// A gap means the leader checkpointed and trimmed records we were
	// missing; so does a clean drain that leaves the newest checkpoint
	// ahead of us (e.g. the replacement journal is empty). Either way the
	// missing versions live only in the checkpoint: recover from it.
	if errors.Is(err, store.ErrGap) || (err == nil && st.HasCheckpoint && st.CheckpointVersion > r.rep.DB.Version()) {
		if err := r.resyncLocked(); err != nil {
			return applied, fmt.Errorf("replica: resync: %w", err)
		}
		r.ready.Store(true)
		return int(r.rep.DB.Version() - startVer), nil
	}
	if err != nil {
		return applied, err
	}
	r.setLag(st, applied)
	r.ready.Store(true)
	return applied, nil
}

// setLag records the lag this poll observed: how many versions the poll
// had to apply to reach the tail it saw (0 when already converged), and
// the journal distance still unread (a torn in-progress record at the tail
// keeps Bytes positive until the writer completes it).
func (r *Replica) setLag(st store.JournalStat, applied int) {
	bytes := st.Tail - r.cursor
	if bytes < 0 {
		bytes = 0
	}
	r.lagMu.Lock()
	r.lag = Lag{Versions: uint64(applied), Bytes: bytes}
	r.lagMu.Unlock()
}

// resyncLocked recovers the database from the leader's checkpoint plus
// the current journal, the recovery store.Open runs, and swaps it in
// atomically. Callers hold r.mu.
func (r *Replica) resyncLocked() error {
	st, err := r.b.JournalStat()
	if err != nil {
		return err
	}
	rep := store.NewDBReplay(r.rank)
	_, next, err := rep.Recover(r.b)
	if err != nil {
		return err
	}
	r.rep, r.jgen, r.cursor = rep, st.Gen, next
	if old := r.db.Swap(rep.DB); old != nil {
		r.gen.Add(1)
		r.resyncs.Add(1)
	}
	r.setLag(st, rep.Replayed)
	return nil
}

// Start launches the tailing loop. Safe to call once; Close stops it.
func (r *Replica) Start() {
	r.loopOnce.Do(func() { go r.loop() })
}

func (r *Replica) loop() {
	defer close(r.done)
	t := time.NewTicker(r.opts.poll)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			_, _ = r.Poll() // errors are retried next tick and visible via Err
		}
	}
}

// Close stops the tailing loop and closes the backend. The last replicated
// database stays readable.
func (r *Replica) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	close(r.stop)
	r.loopOnce.Do(func() { close(r.done) }) // loop never started
	<-r.done
	return r.b.Close()
}
