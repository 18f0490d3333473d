package store

import (
	"encoding/json"
	"fmt"
)

// Journal is the commit policy of one durable state: one record per
// commit, appended and (unless WithNoFsync) synced before the commit is
// acknowledged, a fresh checkpoint every WithCheckpointEvery records, and
// a poisoned, read-only journal after the first write failure or version
// chain break. DB runs on one, and so does a sharded cluster
// (internal/shard), whose state spans several databases; the checkpoint
// callback encodes whatever the owner's state is.
//
// A Journal is not safe for concurrent use: its owner serializes every
// call under its own writer lock, so journal order is commit order.
type Journal struct {
	b          Backend
	opts       options
	checkpoint func() (data []byte, version uint64, err error)
	last       uint64 // version of the last journaled commit
	ckptVer    uint64 // version of the last written checkpoint
	sinceCk    int    // records journaled since that checkpoint
	poisoned   error
}

// CreateJournal starts a journal on an empty backend (ErrExists
// otherwise) whose initial state is a checkpoint: checkpoint encodes the
// owner's current state, and is called again for every later checkpoint.
func CreateJournal(b Backend, checkpoint func() ([]byte, uint64, error), opts ...Option) (*Journal, error) {
	if err := checkEmpty(b); err != nil {
		return nil, err
	}
	j := &Journal{b: b, opts: buildOptions(opts), checkpoint: checkpoint}
	if err := j.writeCheckpoint(); err != nil {
		return nil, err
	}
	j.last = j.ckptVer
	return j, nil
}

// checkEmpty refuses a backend that already holds a checkpoint or records.
func checkEmpty(b Backend) error {
	st, err := b.JournalStat()
	if err == nil && (st.HasCheckpoint || st.Tail > 0) {
		err = ErrExists
	}
	return err
}

// OpenJournal recovers a journal: Replay.Recover with the owner's load and
// apply (the newest checkpoint if there is one, then the journal through
// the one replay step), and the journal's policy resumes at the version
// reached. It reads and never writes, so it works on a read-only backend.
func OpenJournal(b Backend, load func(data []byte, version uint64) error, apply func(Record) error,
	checkpoint func() ([]byte, uint64, error), opts ...Option) (*Journal, error) {
	r := &Replay{load: load, apply: apply}
	ckptVer, _, err := r.Recover(b)
	if err != nil {
		return nil, err
	}
	return &Journal{b: b, opts: buildOptions(opts), checkpoint: checkpoint,
		last: r.version, ckptVer: ckptVer, sinceCk: r.Replayed}, nil
}

// Replay is the one replay step of this package: OpenJournal (hence Open
// and a sharded cluster's Open) recovers through it, and a tailing replica
// (internal/replica) recovers through it and keeps stepping it as the
// journal grows. The owner's load seeds the state from a checkpoint or a
// build record, after checking the version it is labeled with; apply
// applies one mutate record, after which the state is at its version.
type Replay struct {
	load     func(data []byte, version uint64) error
	apply    func(Record) error
	seeded   bool
	version  uint64 // version reached, once seeded
	Replayed int    // records seeded from or applied, not skipped
}

// Recover seeds the state from b's checkpoint, if there is one, then
// tails the whole journal through Step. It returns the checkpoint's
// version (0 when there is none) and the cursor past the last complete
// record, or ErrNoDatabase when neither seeded the state.
func (r *Replay) Recover(b Backend) (ckptVer uint64, next int64, err error) {
	data, v, ok, err := b.LoadCheckpoint()
	if err != nil {
		return 0, 0, err
	}
	if ok {
		if err := r.load(data, v); err != nil {
			return 0, 0, fmt.Errorf("checkpoint: %w", err)
		}
		r.seeded, r.version, ckptVer = true, v, v
	}
	if next, err = b.TailRecords(0, r.Step); err != nil {
		return 0, 0, err
	}
	if !r.seeded {
		return 0, 0, ErrNoDatabase
	}
	return ckptVer, next, nil
}

// Step decodes one raw record and seeds the state, skips the record,
// applies it, or reports a gap. A build record seeds an empty state. A
// record at or below the version reached is skipped: a crash between a
// checkpoint and its log trim leaves such records, and a replica rescans
// them after a trim. A mutate record at the next version applies. Any
// other record past the version reached fails with ErrCorrupt and ErrGap,
// which ends a recovery and sends a replica to resync.
func (r *Replay) Step(raw []byte) error {
	rec, err := DecodeRecord(raw)
	if err != nil {
		return fmt.Errorf("record after v%d: %w", r.version, err)
	}
	switch {
	case rec.Op != "build" && rec.Op != "mutate":
		return fmt.Errorf("%w: unknown record op %q", ErrCorrupt, rec.Op)
	case !r.seeded && rec.Op == "build":
		if err := r.load(rec.DB, rec.Version); err != nil {
			return fmt.Errorf("build record: %w", err)
		}
		r.seeded, r.version = true, rec.Version
	case r.seeded && rec.Version <= r.version:
		return nil
	case !r.seeded || rec.Op == "build" || rec.Version != r.version+1:
		return fmt.Errorf("%w: %s record v%d after v%d (%w)", ErrCorrupt, rec.Op, rec.Version, r.version, ErrGap)
	default:
		if err := r.apply(rec); err != nil {
			return fmt.Errorf("%w: replaying v%d: %v", ErrCorrupt, rec.Version, err)
		}
		r.version = rec.Version
	}
	r.Replayed++
	return nil
}

// Append journals the commit that just produced rec.Version, which must
// be the next version after the last journaled one. Any backend failure,
// and any chain break (the state was mutated behind the journal's back),
// poisons the journal: memory is then ahead of it, and appending further
// records would persist a history with a hole. Every failure, the first
// one included, comes back wrapped in ErrPoisoned, so callers can classify
// even the request that hit the disk failure as a server-side fault.
func (j *Journal) Append(rec Record) error {
	if err := j.Err(); err != nil {
		return err
	}
	if rec.Version != j.last+1 {
		return j.poison(fmt.Errorf("commit v%d after journaled v%d: database mutated outside the store", rec.Version, j.last))
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return j.poison(err)
	}
	if err := j.b.AppendRecord(data); err != nil {
		return j.poison(err)
	}
	if j.opts.fsync {
		if err := j.b.Sync(); err != nil {
			return j.poison(err)
		}
	}
	j.last = rec.Version
	j.sinceCk++
	if j.opts.checkpointEvery > 0 && j.sinceCk >= j.opts.checkpointEvery {
		// A failed automatic checkpoint must not fail the commit that
		// triggered it: the commit is journaled and durable, and the log
		// stays intact, so recovery just replays more records. sinceCk
		// keeps counting, so the next commit retries; Close and Checkpoint
		// surface persistent failures.
		_ = j.writeCheckpoint()
	}
	return nil
}

func (j *Journal) poison(err error) error {
	j.poisoned = err
	return j.Err()
}

// Err returns nil while the journal accepts commits, and the first write
// failure, wrapped in ErrPoisoned, once it does not.
func (j *Journal) Err() error {
	if j.poisoned == nil {
		return nil
	}
	return fmt.Errorf("%w (%v)", ErrPoisoned, j.poisoned)
}

// Checkpoint writes a checkpoint of the current state and trims the log,
// regardless of the automatic policy.
func (j *Journal) Checkpoint() error {
	if err := j.Err(); err != nil {
		return err
	}
	return j.writeCheckpoint()
}

func (j *Journal) writeCheckpoint() error {
	data, v, err := j.checkpoint()
	if err != nil {
		return err
	}
	if err := j.b.WriteCheckpoint(data, v); err != nil {
		return err
	}
	j.ckptVer = v
	j.sinceCk = 0
	return nil
}

// SinceCheckpoint returns how many records the next recovery would
// replay, and the version of the newest checkpoint (0 when there is none
// yet and recovery starts from a build record).
func (j *Journal) SinceCheckpoint() (records int, checkpointVersion uint64) {
	return j.sinceCk, j.ckptVer
}

// Close flushes and releases the journal: a final checkpoint if any
// records accumulated since the last one (so the next open replays
// nothing), then backend close. A poisoned journal skips the checkpoint,
// since its log is still the longest consistent prefix, and just closes.
func (j *Journal) Close() error {
	var err error
	if j.poisoned == nil && j.sinceCk > 0 {
		err = j.writeCheckpoint()
	}
	if cerr := j.b.Close(); err == nil {
		err = cerr
	}
	return err
}
