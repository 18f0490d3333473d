// Package store is the persistence subsystem: it makes a versioned
// uncertain database durable by journaling every commit — Build, single
// mutations, batches, applied cleanings — as a write-ahead-log record
// keyed by the version the commit produced, and by periodically
// checkpointing a full snapshot of the database (encoded from a pinned
// epoch, so checkpointing never blocks queries). Opening a store loads the
// latest checkpoint and replays the WAL records after it, reconstructing a
// database that is bit-identical to the one that was journaled: same rank
// order, same version counter, same tie-break and identity counters, and
// therefore identical answers — see PERSISTENCE.md for the format and the
// crash-recovery contract.
//
// The byte-level storage is behind the Backend interface and a
// hidalgo-style driver registry (Register / OpenBackend): the package
// ships a "file" driver (one directory per database) and a "mem" driver
// (tests, ephemeral tenants that still want the journaling semantics,
// in-process replication harnesses). A key-value backend can slot in by
// giving WAL records sequence-numbered keys and the checkpoint a dedicated
// key; the storetest package holds the conformance suite a new driver must
// pass.
//
// Every reader of a journal recovers through one replay step
// (Replay.Step): it seeds the state from a build record, skips a record
// at or below the version reached, applies a mutate record at the next
// version, and reports anything else past it as a gap. Open runs it
// through OpenJournal with DBReplay's unsharded load and apply, a
// sharded cluster (internal/shard) runs OpenJournal with its own, and a
// follower (internal/replica) opens the backend read-only
// (OpenBackendReadOnly), recovers with DBReplay exactly like Open, and
// keeps stepping it as it tails the journal with TailRecords.
package store

import "errors"

// ErrNoDatabase is returned by Open, OpenJournal and Replay.Recover when
// the backend holds no checkpoint and no build record — nothing to
// recover.
var ErrNoDatabase = errors.New("store: backend holds no database")

// ErrExists is returned by Create when the backend already holds a
// database.
var ErrExists = errors.New("store: backend already holds a database")

// ErrCorrupt wraps recovery failures: records out of version order, a
// checkpoint that does not decode, a WAL that skips a version. A torn
// final record is NOT corruption — it is the expected shape of a crash
// mid-append, and recovery discards it silently.
var ErrCorrupt = errors.New("store: corrupt journal")

// ErrGap marks a version gap in the replay step: a record past the next
// version after the one reached, a build record after the state was
// seeded, or a mutate record before it was. Replay.Step wraps it in
// ErrCorrupt. During a recovery (Open, OpenJournal) that is fatal; for a
// tailing replica it is the signal that the leader checkpointed past the
// replica's position and the missing versions must come from the
// checkpoint instead (a resync, the recovery Open runs).
var ErrGap = errors.New("store: journal version gap")

// ErrPoisoned wraps every journal write failure — the failing write
// itself and every write after it: once a record could not be appended,
// the in-memory database may be ahead of the journal, so continuing to
// journal would persist a history with a gap. The store refuses further
// writes; reads (DB) remain valid.
var ErrPoisoned = errors.New("store: journal write failed; store is read-only")

// ErrReadOnly is returned by the mutating Backend methods of a backend
// opened read-only (a follower's view of a leader's store).
var ErrReadOnly = errors.New("store: backend is open read-only")

// JournalStat is a cheap snapshot of a backend's journal state — what a
// tailing reader polls between TailRecords calls. It must not read record
// or checkpoint payloads.
type JournalStat struct {
	// Gen is the journal generation: it changes whenever the journal is
	// replaced or trimmed (WriteCheckpoint discards records), so a tailing
	// reader holding a cursor into the old journal can detect that the
	// cursor is void and must restart from 0. The value itself is opaque
	// and backend-local; only change matters.
	Gen uint64

	// Tail is the cursor at the journal's current end, in the same units
	// TailRecords uses (bytes for the file backend, records for the memory
	// backend). It includes a torn in-progress record at the tail, so
	// Tail minus a drained reader's cursor is the honest bytes-behind lag.
	Tail int64

	// CheckpointVersion is the version of the newest checkpoint when
	// HasCheckpoint is true.
	CheckpointVersion uint64
	HasCheckpoint     bool
}

// Backend is the byte-level storage a store runs on: an append-only record
// log (the WAL) plus one atomically replaceable checkpoint blob. Records
// and checkpoints are opaque to the backend. Implementations must make
// WriteCheckpoint atomic (a crash leaves either the old or the new
// checkpoint, never a partial one) and AppendRecord ordered (records
// replay in append order); writer opens should tolerate a torn final
// record by discarding it, while read-only opens must leave it in place
// (the writer may still be appending it). A Backend is used by one store
// (or one replica) at a time; the store serializes calls into it.
type Backend interface {
	// LoadCheckpoint returns the current checkpoint blob and the database
	// version it was taken at, or ok=false when none has been written.
	LoadCheckpoint() (data []byte, version uint64, ok bool, err error)

	// WriteCheckpoint atomically replaces the checkpoint with data, taken
	// at the given version, and discards WAL records made obsolete by it
	// (those at or below version). After a crash anywhere inside
	// WriteCheckpoint, recovery must still see a consistent (checkpoint,
	// WAL-suffix) pair — implementations order the checkpoint replacement
	// before the WAL trim, and the store skips already-checkpointed
	// versions during replay, so a trim lost to a crash is harmless.
	// Discarding records must change JournalStat().Gen, so tailing readers
	// never misread the replacement journal through a stale cursor.
	WriteCheckpoint(data []byte, version uint64) error

	// AppendRecord appends one WAL record. Durability of the append is
	// governed by Sync: a record is guaranteed crash-durable only after a
	// successful Sync (implementations may sync eagerly and make Sync a
	// no-op).
	AppendRecord(rec []byte) error

	// Sync makes every appended record durable.
	Sync() error

	// TailRecords reads the complete records starting at cursor from (0 =
	// start of the journal), calling fn on each in append order, and
	// returns the cursor just past the last complete record read. An
	// incomplete or invalid record at the tail — the observable shape of a
	// concurrent writer mid-append, or of a crash — ends the scan without
	// error and without advancing past it: the caller retries from the
	// returned cursor once more bytes arrive. Cursors are only meaningful
	// within one journal generation (JournalStat.Gen); fn's error aborts
	// the scan and is returned verbatim.
	TailRecords(from int64, fn func(rec []byte) error) (next int64, err error)

	// JournalStat reports the journal generation, end cursor, and newest
	// checkpoint version without reading payloads. Tailing readers poll it
	// to detect growth (Tail past their cursor), trims (Gen change or Tail
	// below their cursor), and checkpoints that got ahead of them.
	JournalStat() (JournalStat, error)

	// Close releases the backend. The store syncs before closing.
	Close() error
}
