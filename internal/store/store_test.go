package store

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	topkclean "github.com/probdb/topkclean"
	"github.com/probdb/topkclean/internal/gen"
	"github.com/probdb/topkclean/internal/uncertain"
)

// seedDB builds a small synthetic workload.
func seedDB(t testing.TB, xtuples int) *uncertain.Database {
	t.Helper()
	db, err := gen.SyntheticSized(xtuples, 7)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// answersOf fingerprints a database's query answers bit-exactly (IDs,
// ranks, Float64bits of probabilities and quality) through a fresh Engine.
type answers struct {
	version           uint64
	uk, ptk, gtk      string
	quality, quality5 uint64
}

func answersOf(t testing.TB, db *uncertain.Database) answers {
	t.Helper()
	eng, err := topkclean.New(db, topkclean.WithK(7), topkclean.WithPTKThreshold(0.1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := eng.Answers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	q5, err := eng.QualityAt(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	return answers{
		version:  res.Version,
		uk:       topkclean.FormatRanked(res.UKRanks),
		ptk:      topkclean.FormatScored(res.PTK),
		gtk:      topkclean.FormatScored(res.GlobalTopK),
		quality:  math.Float64bits(res.Quality),
		quality5: math.Float64bits(q5),
	}
}

// mutator is the op surface shared by *uncertain.Batch and *Batch — it
// lets one mutation script drive both the journaled store and the
// in-memory shadow replica the recovered answers are checked against.
type mutator interface {
	InsertXTuple(name string, tuples ...uncertain.Tuple) error
	InsertAbsentXTuple(name string) error
	DeleteXTuple(l int) error
	Reweight(l int, probs []float64) error
	Collapse(l, choice int) error
}

var (
	_ mutator = (*uncertain.Batch)(nil)
	_ mutator = (*Batch)(nil)
)

func TestCreateOpenRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name    string
		backend func(t *testing.T) Backend
	}{
		{"file", func(t *testing.T) Backend {
			b, err := OpenDir(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
		{"mem", func(t *testing.T) Backend { return Mem() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.backend(t)
			db := seedDB(t, 50)
			sdb, err := Create(b, db)
			if err != nil {
				t.Fatal(err)
			}
			if err := sdb.Batch(func(tx *Batch) error {
				return tx.InsertXTuple("nov", uncertain.Tuple{ID: "nov.a", Attrs: []float64{99}, Prob: 0.8})
			}); err != nil {
				t.Fatal(err)
			}
			if err := sdb.Batch(func(tx *Batch) error { return tx.Reweight(3, []float64{0.5}) }); err != nil && !errors.Is(err, uncertain.ErrBadReweight) {
				t.Fatal(err)
			}
			if err := sdb.Batch(func(tx *Batch) error { return tx.DeleteXTuple(5) }); err != nil {
				t.Fatal(err)
			}
			want := answersOf(t, sdb.DB())
			if err := sdb.Close(); err != nil { // final checkpoint
				t.Fatal(err)
			}

			// Reopen on the same storage. File backends need a fresh handle.
			if f, ok := b.(*FileBackend); ok {
				nb, err := OpenDir(f.dir)
				if err != nil {
					t.Fatal(err)
				}
				b = nb
			}
			back, err := Open(b, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer back.Close()
			if n, _ := back.SinceCheckpoint(); n != 0 {
				t.Fatalf("close checkpointed, but reopen replayed %d records", n)
			}
			if got := answersOf(t, back.DB()); got != want {
				t.Fatalf("recovered answers diverge:\ngot  %+v\nwant %+v", got, want)
			}
		})
	}
}

func TestOpenEmptyAndCreateTwice(t *testing.T) {
	b, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(b, nil); !errors.Is(err, ErrNoDatabase) {
		t.Fatalf("open empty: %v", err)
	}
	if _, err := Create(b, seedDB(t, 20)); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(b, seedDB(t, 20)); !errors.Is(err, ErrExists) {
		t.Fatalf("second create: %v", err)
	}
}

func TestOutOfBandMutationPoisons(t *testing.T) {
	sdb, err := Create(Mem(), seedDB(t, 30))
	if err != nil {
		t.Fatal(err)
	}
	// A commit behind the store's back: the next journaled write must
	// refuse rather than append a record with a version gap.
	if err := sdb.DB().InsertAbsentXTuple("sneaky"); err != nil {
		t.Fatal(err)
	}
	if err := sdb.Batch(func(tx *Batch) error { return tx.InsertAbsentXTuple("legit") }); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("gap not detected: %v", err)
	}
	if err := sdb.Batch(func(tx *Batch) error { return tx.Reweight(0, nil) }); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("poisoned store accepted another write: %v", err)
	}
}

func TestBatchPartialCommitJournalsPrefix(t *testing.T) {
	b := Mem()
	sdb, err := Create(b, seedDB(t, 30))
	if err != nil {
		t.Fatal(err)
	}
	shadow := sdb.DB().Clone()
	err = sdb.Batch(func(sb *Batch) error {
		if err := sb.InsertAbsentXTuple("ok-1"); err != nil {
			return err
		}
		return sb.DeleteXTuple(9999) // fails; ok-1 stays applied and committed
	})
	if !errors.Is(err, uncertain.ErrBadGroupIndex) {
		t.Fatalf("batch error: %v", err)
	}
	if v := sdb.DB().Version(); v != shadow.Version()+1 {
		t.Fatalf("partial batch version %d, want %d", v, shadow.Version()+1)
	}
	back, err := Open(b.Snapshot(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := answersOf(t, back.DB()), answersOf(t, sdb.DB()); got != want {
		t.Fatalf("partial-batch recovery diverges:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestJournalCleaningRecovers(t *testing.T) {
	b := Mem()
	sdb, err := Create(b, seedDB(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := topkclean.New(sdb.DB(), topkclean.WithK(5), topkclean.WithPTKThreshold(0.1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	spec := topkclean.UniformCleaningSpec(sdb.DB().NumGroups(), 1, 1)
	plan, cctx, err := eng.PlanCleaning(ctx, "greedy", spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.ApplyCleaning(ctx, cctx, plan, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Choices) == 0 {
		t.Fatal("cleaning with sc-prob 1 resolved nothing")
	}
	if err := sdb.JournalCleaning(out.Choices); err != nil {
		t.Fatal(err)
	}
	back, err := Open(b.Snapshot(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := answersOf(t, back.DB()), answersOf(t, sdb.DB()); got != want {
		t.Fatalf("journaled cleaning diverges on recovery:\ngot  %+v\nwant %+v", got, want)
	}
	// An empty outcome journals nothing and is not an error.
	if err := sdb.JournalCleaning(nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointPolicyResetsWAL(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := Create(b, seedDB(t, 30), WithCheckpointEvery(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ { // build record + 5 = two checkpoint triggers
		if err := sdb.Batch(func(tx *Batch) error { return tx.InsertAbsentXTuple(string(rune('a' + i))) }); err != nil {
			t.Fatal(err)
		}
	}
	n, ckptVer := sdb.SinceCheckpoint()
	if ckptVer == 0 || n >= 3 {
		t.Fatalf("checkpoint policy did not fire: %d records since ckpt v%d", n, ckptVer)
	}
	fi, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 4096 { // trimmed to the post-checkpoint suffix
		t.Fatalf("WAL not trimmed by checkpoints: %d bytes", fi.Size())
	}
	want := answersOf(t, sdb.DB())
	if err := sdb.Close(); err != nil {
		t.Fatal(err)
	}
	nb, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Open(nb, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if got := answersOf(t, back.DB()); got != want {
		t.Fatalf("checkpointed recovery diverges:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestDirSingleOpener: a store directory has exactly one opener — a
// second process (or handle) must fail fast instead of truncating or
// checkpointing the WAL under the first.
func TestDirSingleOpener(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir); err == nil {
		t.Fatal("second OpenDir on a locked store succeeded")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	nb, err := OpenDir(dir) // released on close
	if err != nil {
		t.Fatal(err)
	}
	nb.Close()
}
