package replica

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/probdb/topkclean/internal/gen"
	"github.com/probdb/topkclean/internal/store"
	"github.com/probdb/topkclean/internal/uncertain"
)

// seedStore creates a leader store over the given backend with a small
// synthetic database.
func seedStore(t *testing.T, b store.Backend, xtuples int) *store.DB {
	t.Helper()
	db, err := gen.SyntheticSized(xtuples, 7)
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := store.Create(b, db, store.WithCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	return sdb
}

// wireOf fingerprints a database bit-exactly.
func wireOf(t *testing.T, db *uncertain.Database) []byte {
	t.Helper()
	data, err := uncertain.EncodeWire(db)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// mutate applies one deterministic pseudo-random mutation to the leader.
func mutate(t *testing.T, sdb *store.DB, rng *rand.Rand, i int) {
	t.Helper()
	snap := sdb.DB().Snapshot()
	n := snap.NumGroups()
	var err error
	switch rng.Intn(4) {
	case 0:
		err = sdb.Batch(func(tx *store.Batch) error {
			return tx.InsertXTuple(fmt.Sprintf("mx%d", i),
				uncertain.Tuple{ID: fmt.Sprintf("m%d", i), Attrs: []float64{rng.Float64() * 100}, Prob: 0.5})
		})
	case 1:
		err = sdb.Batch(func(tx *store.Batch) error { return tx.InsertAbsentXTuple(fmt.Sprintf("ax%d", i)) })
	case 2:
		if n > 0 {
			l := rng.Intn(n)
			g, gerr := snap.Group(l)
			if gerr != nil {
				t.Fatal(gerr)
			}
			if k := len(g.RealTuples()); k > 0 {
				probs := make([]float64, k)
				for j := range probs {
					probs[j] = rng.Float64() / float64(k)
				}
				err = sdb.Batch(func(tx *store.Batch) error { return tx.Reweight(l, probs) })
			}
		}
	case 3:
		if n > 1 {
			err = sdb.Batch(func(tx *store.Batch) error { return tx.DeleteXTuple(rng.Intn(n)) })
		}
	}
	if err != nil {
		t.Fatalf("mutation %d: %v", i, err)
	}
}

// TestTailBitIdentity drives a mem-backed leader through a mutation script
// and checks, at every version, that a polled replica's database encodes
// to the exact same bytes as the leader's.
func TestTailBitIdentity(t *testing.T) {
	b := store.Mem()
	sdb := seedStore(t, b, 20)
	rep, err := Open(b, uncertain.ByFirstAttr)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if rep.Version() != sdb.Version() {
		t.Fatalf("replica opened at v%d, leader at v%d", rep.Version(), sdb.Version())
	}
	if !rep.Ready() {
		t.Fatal("replica not ready after Open")
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 40; i++ {
		mutate(t, sdb, rng, i)
		if _, err := rep.Poll(); err != nil {
			t.Fatalf("poll after mutation %d: %v", i, err)
		}
		if rep.Version() != sdb.Version() {
			t.Fatalf("after mutation %d: replica v%d, leader v%d", i, rep.Version(), sdb.Version())
		}
		if lw, rw := wireOf(t, sdb.DB().Snapshot()), wireOf(t, rep.DB().Snapshot()); !bytes.Equal(lw, rw) {
			t.Fatalf("after mutation %d (v%d): replica wire differs from leader", i, sdb.Version())
		}
		if lag := rep.Lag(); lag.Bytes != 0 {
			t.Fatalf("after drain: lag %+v, want 0 bytes", lag)
		}
	}
	if rep.Generation() != 0 || rep.Resyncs() != 0 {
		t.Fatalf("incremental tailing bumped generation (%d) or resyncs (%d)", rep.Generation(), rep.Resyncs())
	}
}

// TestTornTailWaits covers the mid-record read: a torn record at the tail
// must make the replica wait (no error, no application, positive lag), and
// the record must apply once completed.
func TestTornTailWaits(t *testing.T) {
	b := store.Mem()
	sdb := seedStore(t, b, 10)
	rep, err := Open(b, uncertain.ByFirstAttr)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if err := sdb.Batch(func(tx *store.Batch) error { return tx.InsertAbsentXTuple("torn") }); err != nil {
		t.Fatal(err)
	}
	b.TearLast()
	applied, err := rep.Poll()
	if err != nil {
		t.Fatalf("poll over torn tail errored: %v", err)
	}
	if applied != 0 {
		t.Fatalf("poll applied %d records through a torn tail", applied)
	}
	if lag := rep.Lag(); lag.Bytes == 0 {
		t.Fatal("torn tail not reflected in lag")
	}
	if rep.Version() != sdb.Version()-1 {
		t.Fatalf("replica at v%d, want leader's version minus the torn commit", rep.Version())
	}
	b.CompletePartial()
	applied, err = rep.Poll()
	if err != nil || applied != 1 {
		t.Fatalf("poll after completion: applied %d, err %v", applied, err)
	}
	if rep.Version() != sdb.Version() {
		t.Fatalf("replica v%d, leader v%d after completion", rep.Version(), sdb.Version())
	}
	if !bytes.Equal(wireOf(t, sdb.DB().Snapshot()), wireOf(t, rep.DB().Snapshot())) {
		t.Fatal("replica diverged after torn-tail completion")
	}
}

// TestFileTornTailWaits is the byte-level variant: a half-written frame is
// appended directly to wal.log behind a file-backed replica, which must
// stop before it without error and pick up the record once the remaining
// bytes land.
func TestFileTornTailWaits(t *testing.T) {
	dir := t.TempDir()
	fb, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sdb := seedStore(t, fb, 10)
	if err := sdb.Batch(func(tx *store.Batch) error { return tx.InsertAbsentXTuple("pre") }); err != nil {
		t.Fatal(err)
	}
	// Simulate a leader crash image: close the raw backend without the
	// store's Close (which would checkpoint and rotate the journal away).
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}

	rb, err := store.OpenDirReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Open(rb, uncertain.ByFirstAttr)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	wantVer := rep.Version()

	// Hand-frame the next mutate record and append only a prefix of it.
	rec := []byte(`{"v":` + itoa(wantVer+1) + `,"op":"mutate","ops":[{"op":"insert_absent","name":"torn","group":0,"choice":0}]}`)
	framed := make([]byte, 8+len(rec))
	binary.LittleEndian.PutUint32(framed[0:4], uint32(len(rec)))
	binary.LittleEndian.PutUint32(framed[4:8], crc32.ChecksumIEEE(rec))
	copy(framed[8:], rec)
	wal := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(framed) - 11
	if _, err := f.Write(framed[:cut]); err != nil {
		t.Fatal(err)
	}

	applied, err := rep.Poll()
	if err != nil || applied != 0 {
		t.Fatalf("poll over byte-torn tail: applied %d, err %v", applied, err)
	}
	if lag := rep.Lag(); lag.Bytes != int64(cut) {
		t.Fatalf("lag %+v, want %d bytes behind", lag, cut)
	}
	if rep.Version() != wantVer {
		t.Fatalf("replica moved to v%d over a torn record", rep.Version())
	}

	if _, err := f.Write(framed[cut:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	applied, err = rep.Poll()
	if err != nil || applied != 1 {
		t.Fatalf("poll after completing the frame: applied %d, err %v", applied, err)
	}
	if rep.Version() != wantVer+1 {
		t.Fatalf("replica at v%d, want v%d", rep.Version(), wantVer+1)
	}
	if lag := rep.Lag(); lag.Bytes != 0 {
		t.Fatalf("lag %+v after full drain", lag)
	}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestResyncAfterTrim stops polling, lets the leader checkpoint (which
// trims and rotates the journal) and commit more, and checks the replica
// re-syncs from the checkpoint: same bytes as the leader, Generation and
// Resyncs bumped.
func TestResyncAfterTrim(t *testing.T) {
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "db")
			lb, err := store.OpenBackend(backend, path)
			if err != nil {
				t.Fatal(err)
			}
			sdb := seedStore(t, lb, 15)
			rb, err := store.OpenBackendReadOnly(backend, path)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Open(rb, uncertain.ByFirstAttr)
			if err != nil {
				t.Fatal(err)
			}
			defer rep.Close()

			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 5; i++ {
				mutate(t, sdb, rng, i)
			}
			if err := sdb.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for i := 5; i < 9; i++ {
				mutate(t, sdb, rng, i)
			}
			for i := 0; i < 3; i++ { // resync may take a poll to observe the rotation
				if _, err := rep.Poll(); err != nil {
					t.Fatalf("poll %d: %v", i, err)
				}
				if rep.Version() == sdb.Version() {
					break
				}
			}
			if rep.Version() != sdb.Version() {
				t.Fatalf("replica v%d, leader v%d after trim", rep.Version(), sdb.Version())
			}
			if rep.Resyncs() == 0 || rep.Generation() == 0 {
				t.Fatalf("trim did not force a resync (resyncs=%d gen=%d)", rep.Resyncs(), rep.Generation())
			}
			if !bytes.Equal(wireOf(t, sdb.DB().Snapshot()), wireOf(t, rep.DB().Snapshot())) {
				t.Fatal("replica diverged after resync")
			}
			if err := sdb.Batch(func(tx *store.Batch) error { return tx.InsertAbsentXTuple("post") }); err != nil {
				t.Fatal(err)
			}
			if _, err := rep.Poll(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wireOf(t, sdb.DB().Snapshot()), wireOf(t, rep.DB().Snapshot())) {
				t.Fatal("replica diverged tailing the rotated journal")
			}
			sdb.Close()
		})
	}
}

// TestConcurrentStreaming runs the leader's mutation stream and the
// replica's tailing loop concurrently (meaningful under -race), then
// checks convergence to identical bytes.
func TestConcurrentStreaming(t *testing.T) {
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "db")
			lb, err := store.OpenBackend(backend, path)
			if err != nil {
				t.Fatal(err)
			}
			sdb := seedStore(t, lb, 15)
			rb, err := store.OpenBackendReadOnly(backend, path)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Open(rb, uncertain.ByFirstAttr, WithPollInterval(time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			defer rep.Close()
			rep.Start()

			rng := rand.New(rand.NewSource(99))
			for i := 0; i < 60; i++ {
				mutate(t, sdb, rng, i)
				if i%20 == 19 {
					if err := sdb.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				// Interleave reads with replication: snapshot queries must
				// be safe against the tailing loop's writes.
				_ = rep.DB().Snapshot().Version()
			}
			deadline := time.Now().Add(5 * time.Second)
			for rep.Version() != sdb.Version() {
				if time.Now().After(deadline) {
					t.Fatalf("replica stuck at v%d, leader v%d (err=%v)", rep.Version(), sdb.Version(), rep.Err())
				}
				time.Sleep(2 * time.Millisecond)
			}
			if !bytes.Equal(wireOf(t, sdb.DB().Snapshot()), wireOf(t, rep.DB().Snapshot())) {
				t.Fatal("replica diverged under concurrent streaming")
			}
			sdb.Close()
		})
	}
}

// TestOpenEmpty checks the no-database error.
func TestOpenEmpty(t *testing.T) {
	if _, err := Open(store.Mem(), uncertain.ByFirstAttr); !errors.Is(err, store.ErrNoDatabase) {
		t.Fatalf("Open(empty) = %v, want ErrNoDatabase", err)
	}
}

// TestReadOnlyBackendRefusesWrites double-checks the replica's backend
// cannot be driven into the write path by accident.
func TestReadOnlyBackendRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	fb, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sdb := seedStore(t, fb, 5)
	defer sdb.Close()
	rb, err := store.OpenDirReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	if err := rb.AppendRecord([]byte("x")); !errors.Is(err, store.ErrReadOnly) {
		t.Fatalf("AppendRecord on RO backend: %v", err)
	}
	if err := rb.WriteCheckpoint([]byte("x"), 1); !errors.Is(err, store.ErrReadOnly) {
		t.Fatalf("WriteCheckpoint on RO backend: %v", err)
	}
}
