package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/probdb/topkclean/internal/uncertain"
)

// mutationScript is a deterministic sequence of journaled commits, each
// committing exactly one version: a step runs inside one batch (storeStep,
// plainStep) and reads the database it mutates. Steps derive their parameters from the
// database they run against, so replaying the script on an identical copy
// (the shadow replica) produces identical states — the same harness shape
// as the PR 3/PR 4 frozen-replica cross-checks.
func mutationScript() []func(m mutator, db *uncertain.Database) error {
	var steps []func(m mutator, db *uncertain.Database) error
	for i := 0; i < 14; i++ {
		i := i
		switch i % 7 {
		case 0: // insert landing mid-ranking, two alternatives + null
			steps = append(steps, func(m mutator, db *uncertain.Database) error {
				mid := db.Sorted()[db.NumTuples()/3].Score
				return m.InsertXTuple(fmt.Sprintf("ks-%d", i),
					uncertain.Tuple{ID: fmt.Sprintf("ks%d.a", i), Attrs: []float64{mid + 0.25}, Prob: 0.5},
					uncertain.Tuple{ID: fmt.Sprintf("ks%d.b", i), Attrs: []float64{mid - 0.25}, Prob: 0.4})
			})
		case 1: // reweight the top group
			steps = append(steps, func(m mutator, db *uncertain.Database) error {
				g := db.Sorted()[0].Group
				real := db.Groups()[g].RealTuples()
				probs := make([]float64, len(real))
				for j := range probs {
					probs[j] = (0.4 + 0.01*float64(i)) / float64(len(probs))
				}
				return m.Reweight(g, probs)
			})
		case 2: // absent insert
			steps = append(steps, func(m mutator, db *uncertain.Database) error {
				return m.InsertAbsentXTuple(fmt.Sprintf("ks-absent-%d", i))
			})
		case 3: // non-trailing delete: renumbers every later group
			steps = append(steps, func(m mutator, db *uncertain.Database) error {
				return m.DeleteXTuple(db.NumGroups() / 4)
			})
		case 4: // collapse a mid group
			steps = append(steps, func(m mutator, db *uncertain.Database) error {
				return m.Collapse(db.NumGroups()/2, 0)
			})
		case 5: // trailing delete
			steps = append(steps, func(m mutator, db *uncertain.Database) error {
				return m.DeleteXTuple(db.NumGroups() - 1)
			})
		default: // batch: reweight bottom + insert, one commit/record
			steps = append(steps, func(m mutator, db *uncertain.Database) error {
				g := db.Sorted()[db.NumTuples()-1].Group
				real := db.Groups()[g].RealTuples()
				probs := make([]float64, len(real))
				for j := range probs {
					probs[j] = 0.5 / float64(len(probs))
				}
				if err := m.Reweight(g, probs); err != nil {
					return err
				}
				return m.InsertXTuple(fmt.Sprintf("ks-batch-%d", i),
					uncertain.Tuple{ID: fmt.Sprintf("ksb%d.a", i), Attrs: []float64{db.Sorted()[0].Score + 1}, Prob: 0.6})
			})
		}
	}
	return steps
}

// storeStep commits one script step as one journaled batch.
func storeStep(sdb *DB, step func(mutator, *uncertain.Database) error) error {
	return sdb.Batch(func(b *Batch) error { return step(b, sdb.DB()) })
}

// plainStep commits one script step as one batch of an unjournaled
// database.
func plainStep(db *uncertain.Database, step func(mutator, *uncertain.Database) error) error {
	return db.Batch(func(b *uncertain.Batch) error { return step(b, db) })
}

// runScript drives the script through a journaled store while maintaining
// the shadow replica, returning the expected bit-exact answers for every
// committed version.
func runScript(t *testing.T, sdb *DB, replica *uncertain.Database) map[uint64]answers {
	t.Helper()
	expected := map[uint64]answers{replica.Version(): answersOf(t, replica.Clone())}
	for si, step := range mutationScript() {
		if err := storeStep(sdb, step); err != nil {
			t.Fatalf("store step %d: %v", si, err)
		}
		if err := plainStep(replica, step); err != nil {
			t.Fatalf("replica step %d: %v", si, err)
		}
		if sdb.DB().Version() != replica.Version() {
			t.Fatalf("step %d: store v%d, replica v%d", si, sdb.DB().Version(), replica.Version())
		}
		expected[replica.Version()] = answersOf(t, replica.Clone())
	}
	return expected
}

// TestKillAfterEveryWALRecord is the crash-recovery property test: for a
// WAL of N records, a process killed after the i-th record's append — for
// every i — must recover to exactly the database the first i records
// describe, with answers bit-identical (IDs, ranks, Float64bits of
// probabilities and quality) to the uninterrupted database at that
// version. Kills *inside* a record append (torn tail) must recover to the
// previous record's version. Runs under -race in CI with everything else.
func TestKillAfterEveryWALRecord(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := seedDB(t, 60)
	replica := db.Clone()
	// Checkpoints off: the whole history stays in the WAL, so record
	// boundaries cover every commit since Build.
	sdb, err := Create(b, db, WithCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	expected := runScript(t, sdb, replica)

	// Find the WAL's record boundaries (and record count) from the bytes
	// the store actually wrote.
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	var boundaries []int64
	off := int64(0)
	for off < int64(len(wal)) {
		size := int64(uint32(wal[off]) | uint32(wal[off+1])<<8 | uint32(wal[off+2])<<16 | uint32(wal[off+3])<<24)
		off += frameHdr + size
		boundaries = append(boundaries, off)
	}
	nRecords := len(boundaries)
	if nRecords < 10 {
		t.Fatalf("script journaled only %d records", nRecords)
	}

	openAt := func(t *testing.T, prefix []byte) (*DB, error) {
		t.Helper()
		crashDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(crashDir, walName), prefix, 0o644); err != nil {
			t.Fatal(err)
		}
		cb, err := OpenDir(crashDir)
		if err != nil {
			t.Fatal(err)
		}
		return Open(cb, nil)
	}

	// Kill before the first record: nothing to recover.
	if _, err := openAt(t, nil); !errors.Is(err, ErrNoDatabase) {
		t.Fatalf("empty WAL recovered: %v", err)
	}
	baseVersion := replica.Version() - uint64(nRecords-1) // version of the build record
	for i, end := range boundaries {
		version := baseVersion + uint64(i)
		rec, err := openAt(t, wal[:end])
		if err != nil {
			t.Fatalf("kill after record %d: %v", i+1, err)
		}
		if got := rec.DB().Version(); got != version {
			t.Fatalf("kill after record %d: recovered v%d, want v%d", i+1, got, version)
		}
		want, ok := expected[version]
		if !ok {
			t.Fatalf("no expectation for v%d", version)
		}
		if got := answersOf(t, rec.DB()); got != want {
			t.Fatalf("kill after record %d (v%d): answers diverge\ngot  %+v\nwant %+v", i+1, version, got, want)
		}

		// Torn kill inside record i+1: mid-append crash discards the tail
		// and recovers the previous record's state.
		if i+1 < nRecords {
			torn, err := openAt(t, wal[:boundaries[i+1]-3])
			if err != nil {
				t.Fatalf("torn kill inside record %d: %v", i+2, err)
			}
			if got := torn.DB().Version(); got != version {
				t.Fatalf("torn kill inside record %d: recovered v%d, want v%d", i+2, got, version)
			}
			if got := answersOf(t, torn.DB()); got != want {
				t.Fatalf("torn kill inside record %d: answers diverge\ngot  %+v\nwant %+v", i+2, got, want)
			}
		}
	}
}

// TestKillAfterEveryCommitWithCheckpoints repeats the crash sweep with the
// automatic checkpoint policy on, copying the whole backend directory
// after every commit — so the crash points also land just after
// checkpoint replacements, covering recovery from (checkpoint, WAL-suffix)
// pairs rather than a pure log.
func TestKillAfterEveryCommitWithCheckpoints(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := seedDB(t, 60)
	replica := db.Clone()
	sdb, err := Create(b, db, WithCheckpointEvery(4))
	if err != nil {
		t.Fatal(err)
	}
	expected := map[uint64]answers{replica.Version(): answersOf(t, replica.Clone())}
	crashes := map[uint64]string{replica.Version(): copyDir(t, dir)}
	for si, step := range mutationScript() {
		if err := storeStep(sdb, step); err != nil {
			t.Fatalf("store step %d: %v", si, err)
		}
		if err := plainStep(replica, step); err != nil {
			t.Fatalf("replica step %d: %v", si, err)
		}
		v := replica.Version()
		expected[v] = answersOf(t, replica.Clone())
		crashes[v] = copyDir(t, dir)
	}
	for v, crashDir := range crashes {
		cb, err := OpenDir(crashDir)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := Open(cb, nil)
		if err != nil {
			t.Fatalf("crash at v%d: %v", v, err)
		}
		if got := rec.DB().Version(); got != v {
			t.Fatalf("crash at v%d recovered v%d", v, got)
		}
		if got := answersOf(t, rec.DB()); got != expected[v] {
			t.Fatalf("crash at v%d: answers diverge\ngot  %+v\nwant %+v", v, got, expected[v])
		}
		rec.Close()
	}
}

// TestRecoverSkipsCheckpointedRecords pins the crash window *inside*
// WriteCheckpoint: the checkpoint has been renamed into place but the WAL
// trim never happened, so the log still holds records at or below the
// checkpoint version. Replay must skip them and land exactly where the
// uninterrupted store would.
func TestRecoverSkipsCheckpointedRecords(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := seedDB(t, 60)
	replica := db.Clone()
	sdb, err := Create(b, db, WithCheckpointEvery(0)) // full history in the WAL
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, sdb, replica)
	want := answersOf(t, replica.Clone())

	// Plant a checkpoint of a mid-history version next to the *untrimmed*
	// WAL — exactly what a crash between the rename and the trim leaves.
	// The mid-history state is rebuilt by replaying the deterministic
	// script prefix on a fresh seed copy.
	midVersion := replica.Version() - 5
	shadow := seedDB(t, 60)
	steps := mutationScript()
	for si := 0; shadow.Version() < midVersion; si++ {
		if err := plainStep(shadow, steps[si]); err != nil {
			t.Fatal(err)
		}
	}
	data, err := uncertain.EncodeWire(shadow)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s%d%s", ckptPrefix, midVersion, ckptSuffix))
	if err := os.WriteFile(path, frame(data), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := b.Close(); err != nil { // release the WAL lock; no checkpoint, the log stays untrimmed
		t.Fatal(err)
	}
	nb, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Open(nb, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := rec.DB().Version(); got != replica.Version() {
		t.Fatalf("recovered v%d, want v%d", got, replica.Version())
	}
	if got := answersOf(t, rec.DB()); got != want {
		t.Fatalf("checkpoint-skip recovery diverges:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestRecoverRejectsGap: a WAL whose version chain skips a record is
// corruption, not something to silently serve.
func TestRecoverRejectsGap(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := Create(b, seedDB(t, 30), WithCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := sdb.Batch(func(tx *Batch) error { return tx.InsertAbsentXTuple(fmt.Sprintf("g%d", i)) }); err != nil {
			t.Fatal(err)
		}
	}
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	// Remove the middle record (a full frame) to create a version gap.
	var bounds []int64
	off := int64(0)
	for off < int64(len(wal)) {
		size := int64(uint32(wal[off]) | uint32(wal[off+1])<<8 | uint32(wal[off+2])<<16 | uint32(wal[off+3])<<24)
		bounds = append(bounds, off)
		off += frameHdr + size
	}
	gapped := append(append([]byte(nil), wal[:bounds[2]]...), wal[bounds[3]:]...)
	crashDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(crashDir, walName), gapped, 0o644); err != nil {
		t.Fatal(err)
	}
	cb, err := OpenDir(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(cb, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("gapped WAL accepted: %v", err)
	}
}

// copyDir snapshots a backend directory — the on-disk state a kill at
// this instant would leave (every record is fsynced before the commit
// returns, so the copy is exactly the durable state).
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(out, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}
