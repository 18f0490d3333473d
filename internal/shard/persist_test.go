package shard

import (
	"errors"
	"path/filepath"
	"testing"

	"github.com/probdb/topkclean/internal/store"
)

// TestPersistReopen drives the full random mutation mix against a
// file-backed cluster, closes it cleanly, recovers with Open, and
// requires the recovered cluster to answer bit-identically to the
// never-persisted plain database — then keeps mutating and reopens
// again, so both the checkpoint path and the meta-replay path are
// crossed.
func TestPersistReopen(t *testing.T) {
	cfg := Config{Shards: 3, K: 4, Threshold: 0.25, Backend: "file", Path: t.TempDir()}
	m := newMirrorCfg(t, 42, cfg, 25)
	for i := 0; i < 80; i++ {
		m.step()
	}
	m.compare()
	checkInvariant(t, m.c)
	wantVersion := m.c.Version()
	if err := m.c.Close(); err != nil {
		t.Fatal(err)
	}

	// A mismatched shard count is refused before any replay.
	bad := cfg
	bad.Shards = 2
	if _, err := Open(bad); err == nil {
		t.Fatal("Open with the wrong shard count succeeded")
	}
	// So is opening without a backend at all.
	if _, err := Open(Config{Shards: 3, K: 4}); err == nil {
		t.Fatal("Open without a backend succeeded")
	}

	c2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.Version(); got != wantVersion {
		t.Fatalf("recovered at version %d, closed at %d", got, wantVersion)
	}
	compareAll(t, c2, m.db)
	checkInvariant(t, c2)

	// The recovered cluster keeps serving the same mutation mix
	// bit-identically: stamps, placement, and the global sequence counter
	// all survived the round trip.
	m.c = c2
	for i := 0; i < 60; i++ {
		m.step()
	}
	m.compare()
	checkInvariant(t, m.c)
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}

	c3, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareAll(t, c3, m.db)
	checkInvariant(t, c3)
	if err := c3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistTornCommitDetected crashes a commit across the multi-journal
// layout on purpose: the shard WALs advance but the meta journal is
// rolled back to its pre-commit state. Open must refuse with
// ErrInconsistent rather than serve a skewed directory.
func TestPersistTornCommitDetected(t *testing.T) {
	cfg := Config{Shards: 2, K: 3, Threshold: 0.25, Backend: "mem", Path: "torn-commit-test"}
	t.Cleanup(func() {
		for _, p := range []string{"shard-0", "shard-1", "meta"} {
			store.DropMem(filepath.Join(cfg.Path, p))
		}
	})
	m := newMirrorCfg(t, 7, cfg, 12)
	for i := 0; i < 10; i++ {
		m.step()
	}

	// Snapshot the meta journal's record count, commit one more insert
	// (shard WALs + meta both advance), then chop the meta journal back:
	// exactly the torn state a crash between the two appends leaves.
	pre := 0
	if _, err := m.c.meta.TailRecords(0, func([]byte) error { pre++; return nil }); err != nil {
		t.Fatal(err)
	}
	name := m.groupName()
	ts := m.genTuples()
	m.mustBoth(m.c.Batch(func(b *Batch) error { return b.InsertXTuple(name, ts...) }), m.db.InsertXTuple(name, ts...))
	mb := m.c.meta
	m.c.meta = nil // keep Close from checkpointing the truth back in
	if err := m.c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := truncateMeta(mb, pre); err != nil {
		t.Fatal(err)
	}
	mb.Close()

	if _, err := Open(cfg); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("Open on a torn commit: got %v, want ErrInconsistent", err)
	}
}

// TestPersistRefusesOldMetaFormat hand-writes meta checkpoints in other
// formats — the range-shard format 1, whose entries carry explicit local
// indices ("l"), one with no format field, and a future one — over a
// valid cluster, and requires Open to refuse each with ErrMetaFormat,
// never as corruption or a torn commit.
func TestPersistRefusesOldMetaFormat(t *testing.T) {
	for name, ck := range map[string]string{
		"format-1":  `{"format":1,"shards":2,"v":1,"g":4,"sv":[1,1],"entries":[{"s":0,"l":1,"seqs":[0,1]},{"s":1,"l":1,"seqs":[2,3]}]}`,
		"no-format": `{"shards":2,"v":1,"g":4,"sv":[1,1],"entries":[{"s":0,"l":1,"seqs":[0,1]},{"s":1,"l":1,"seqs":[2,3]}]}`,
		"format-3":  `{"format":3,"shards":2,"v":1,"g":4,"sv":[1,1],"entries":[{"s":0,"seqs":[0,1]},{"s":1,"seqs":[2,3]}]}`,
	} {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Shards: 2, K: 2, Threshold: 0.25, Backend: "file", Path: t.TempDir()}
			m := newMirrorCfg(t, 3, cfg, 6)
			if err := m.c.Close(); err != nil {
				t.Fatal(err)
			}
			mb, err := store.OpenBackend(cfg.Backend, filepath.Join(cfg.Path, "meta"))
			if err != nil {
				t.Fatal(err)
			}
			if err := mb.WriteCheckpoint([]byte(ck), 1); err != nil {
				t.Fatal(err)
			}
			mb.Close()
			_, err = Open(cfg)
			if !errors.Is(err, ErrMetaFormat) {
				t.Fatalf("Open: got %v, want ErrMetaFormat", err)
			}
			if errors.Is(err, store.ErrCorrupt) || errors.Is(err, ErrInconsistent) {
				t.Fatalf("Open reported an old format as damage: %v", err)
			}
		})
	}
}

// truncateMeta rewrites the meta backend so only the first n records
// survive, simulating a crash that lost the journal tail.
func truncateMeta(mb store.Backend, n int) error {
	var kept [][]byte
	if _, err := mb.TailRecords(0, func(raw []byte) error {
		if len(kept) < n {
			kept = append(kept, append([]byte(nil), raw...))
		}
		return nil
	}); err != nil {
		return err
	}
	data, v, ok, err := mb.LoadCheckpoint()
	if err != nil {
		return err
	}
	if !ok {
		return errors.New("no meta checkpoint")
	}
	if err := mb.WriteCheckpoint(data, v); err != nil { // drops every record
		return err
	}
	for _, rec := range kept {
		if err := mb.AppendRecord(rec); err != nil {
			return err
		}
	}
	return mb.Sync()
}
