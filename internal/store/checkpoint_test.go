package store

import (
	"errors"
	"testing"

	"github.com/probdb/topkclean/internal/uncertain"
)

var errCheckpointDisk = errors.New("checkpoint disk failure")

// failingCheckpoints wraps a backend so that its next fail WriteCheckpoint
// calls fail before touching anything; tried counts the attempts.
type failingCheckpoints struct {
	Backend
	fail, tried int
}

func (f *failingCheckpoints) WriteCheckpoint(data []byte, version uint64) error {
	f.tried++
	if f.fail > 0 {
		f.fail--
		return errCheckpointDisk
	}
	return f.Backend.WriteCheckpoint(data, version)
}

// TestFailedAutomaticCheckpoint: an automatic checkpoint that fails does
// not fail the commit that triggered it — that commit is journaled and
// durable, and recovery replays it from the older checkpoint plus the WAL
// — the record count keeps growing and every later commit retries until
// one succeeds, and Close reports a failure that persists.
func TestFailedAutomaticCheckpoint(t *testing.T) {
	mem := Mem()
	fb := &failingCheckpoints{Backend: mem}
	db := seedDB(t, 40)
	replica := db.Clone()
	sdb, err := Create(fb, db, WithCheckpointEvery(4))
	if err != nil {
		t.Fatal(err)
	}
	steps := mutationScript()
	next := 0
	commit := func() {
		t.Helper()
		if err := storeStep(sdb, steps[next]); err != nil {
			t.Fatalf("step %d: %v", next, err)
		}
		if err := plainStep(replica, steps[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	since := func(wantRecords int, wantCkpt uint64, wantTried int) {
		t.Helper()
		if records, ckpt := sdb.SinceCheckpoint(); records != wantRecords || ckpt != wantCkpt || fb.tried != wantTried {
			t.Fatalf("after v%d: %d records since checkpoint v%d, %d attempts; want %d since v%d, %d attempts",
				sdb.Version(), records, ckpt, fb.tried, wantRecords, wantCkpt, wantTried)
		}
	}
	recovers := func() {
		t.Helper()
		rec, err := Open(mem.Snapshot(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := stateDigest(t, rec.DB()), stateDigest(t, replica); got != want {
			t.Fatalf("recovered state at v%d diverges from v%d", rec.DB().Version(), replica.Version())
		}
	}

	// The build record counts: three commits reach the first checkpoint.
	for range 3 {
		commit()
	}
	older := replica.Version()
	since(0, older, 1)

	fb.fail = 2
	for range 4 {
		commit() // the fourth triggers a checkpoint that fails
	}
	since(4, older, 2)
	recovers()
	rec, err := Open(mem.Snapshot(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if records, ckpt := rec.SinceCheckpoint(); records != 4 || ckpt != older {
		t.Fatalf("recovery replayed %d records over checkpoint v%d, want 4 over v%d", records, ckpt, older)
	}

	commit() // retries, fails again
	since(5, older, 3)
	commit() // retries, succeeds
	since(0, replica.Version(), 4)
	recovers()

	fb.fail = 1 << 30
	commit()
	if err := sdb.Close(); !errors.Is(err, errCheckpointDisk) {
		t.Fatalf("Close with a failing checkpoint: %v", err)
	}
	recovers()
}

// TestCreateJournalsBinaryBuildRecord: Create's build record is the
// binary form — the tag, the version, then topkclean-wire/v2 bytes — and
// decodes back to a build record of the same version.
func TestCreateJournalsBinaryBuildRecord(t *testing.T) {
	mem := Mem()
	db := seedDB(t, 30)
	if _, err := Create(mem, db); err != nil {
		t.Fatal(err)
	}
	var raw []byte
	if _, err := mem.TailRecords(0, func(rec []byte) error { raw = rec; return nil }); err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 || raw[0] != buildTag {
		t.Fatalf("build record opens with %q, want the binary tag", raw[:min(len(raw), 1)])
	}
	rec, err := DecodeRecord(raw)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Op != "build" || rec.Version != db.Version() || string(rec.DB[:len(uncertain.WireFormat)]) != uncertain.WireFormat {
		t.Fatalf("decoded %s record v%d carrying %q", rec.Op, rec.Version, rec.DB[:min(len(rec.DB), 20)])
	}
	if _, err := DecodeRecord([]byte{buildTag, 0x80}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("build record with a torn version: %v", err)
	}
}
