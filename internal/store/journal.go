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
	if st, err := b.JournalStat(); err != nil {
		return nil, err
	} else if st.HasCheckpoint || st.Tail > 0 {
		return nil, ErrExists
	}
	j := &Journal{b: b, opts: buildOptions(opts), checkpoint: checkpoint}
	if err := j.writeCheckpoint(); err != nil {
		return nil, err
	}
	j.last = j.ckptVer
	return j, nil
}

// OpenJournal recovers a journal CreateJournal started: load receives the
// newest checkpoint and the version it was taken at (ErrNoDatabase when
// there is none), then apply receives every later "mutate" record in
// version order. Records at or below the version reached are skipped and
// a record past the next version fails with ErrCorrupt and ErrGap, as in
// Replayer; apply's own errors come back wrapped in ErrCorrupt.
func OpenJournal(b Backend, load func(data []byte, version uint64) error, apply func(Record) error,
	checkpoint func() ([]byte, uint64, error), opts ...Option) (*Journal, error) {
	data, v, ok, err := b.LoadCheckpoint()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrNoDatabase
	}
	if err := load(data, v); err != nil {
		return nil, err
	}
	j := &Journal{b: b, opts: buildOptions(opts), checkpoint: checkpoint, last: v, ckptVer: v}
	if _, err := b.TailRecords(0, func(raw []byte) error {
		rec, err := DecodeRecord(raw)
		if err != nil {
			return fmt.Errorf("record after v%d: %w", j.last, err)
		}
		if rec.Op != "mutate" {
			return fmt.Errorf("%w: %s record after checkpoint v%d", ErrCorrupt, rec.Op, v)
		}
		if skip, err := chain(rec.Version, j.last); skip || err != nil {
			return err
		}
		if err := apply(rec); err != nil {
			return fmt.Errorf("%w: replaying v%d: %v", ErrCorrupt, rec.Version, err)
		}
		j.last = rec.Version
		j.sinceCk++
		return nil
	}); err != nil {
		return nil, err
	}
	return j, nil
}

// chain is the version-chain rule of replay: a record at or below cur is
// already covered (a crash between a checkpoint and its log trim leaves
// such records) and is skipped, and a record past cur+1 is a gap.
func chain(v, cur uint64) (skip bool, err error) {
	if v <= cur {
		return true, nil
	}
	if v != cur+1 {
		return false, fmt.Errorf("%w: record v%d after v%d (%w)", ErrCorrupt, v, cur, ErrGap)
	}
	return false, nil
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
