package uncertain

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"unsafe"
)

func buildWatermarkDB(t *testing.T) *Database {
	t.Helper()
	db := New()
	// Ten groups with well-separated scores 100, 90, ..., 10 so expected
	// rank positions are obvious: g0.a(100) g1.a(90) ... g9.a(10), then
	// the nulls of groups 5..9 (mass 0.6).
	for g := 0; g < 10; g++ {
		prob := 1.0
		if g >= 5 {
			prob = 0.6
		}
		err := db.AddXTuple(fmt.Sprintf("G%d", g),
			Tuple{ID: fmt.Sprintf("g%d.a", g), Attrs: []float64{float64(100 - 10*g)}, Prob: prob})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Build(ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	return db
}

// expectDirty asserts DirtySince(since) answers with the given watermark.
func expectDirty(t *testing.T, db *Database, since uint64, want int) {
	t.Helper()
	got, ok := db.DirtySince(since)
	if !ok {
		t.Fatalf("DirtySince(%d) unanswerable at version %d", since, db.Version())
	}
	if got != want {
		t.Fatalf("DirtySince(%d) = %d, want %d", since, got, want)
	}
}

func TestDirtySinceWatermarks(t *testing.T) {
	db := buildWatermarkDB(t)
	v0 := db.Version()

	// Clean: current version dirties nothing below NumTuples.
	expectDirty(t, db, v0, db.NumTuples())

	// Insert between g1.a (pos 1) and g2.a (pos 2): watermark 2.
	if err := db.InsertXTuple("mid", Tuple{ID: "mid.a", Attrs: []float64{85}, Prob: 1}); err != nil {
		t.Fatal(err)
	}
	expectDirty(t, db, v0, 2)
	v1 := db.Version()

	// Reweight g9 (pos 10 after the insert): only its probability changes.
	if err := db.Reweight(9, []float64{0.5}); err != nil {
		t.Fatal(err)
	}
	expectDirty(t, db, v1, 10)
	// Merged over both mutations the watermark is the minimum.
	expectDirty(t, db, v0, 2)
	v2 := db.Version()

	// Delete g0 (pos 0): everything is dirty.
	if err := db.DeleteXTuple(0); err != nil {
		t.Fatal(err)
	}
	expectDirty(t, db, v2, 0)
	expectDirty(t, db, v0, 0)

	// Unanswerable cases.
	if _, ok := db.DirtySince(db.Version() + 1); ok {
		t.Error("future version must be unanswerable")
	}
	if _, ok := db.DirtySince(0); ok {
		t.Error("pre-Build version must be unanswerable")
	}
	unbuilt := New()
	if _, ok := unbuilt.DirtySince(0); ok {
		t.Error("unbuilt database must be unanswerable")
	}
}

func TestDirtySinceReweightSkipsUnchangedProbs(t *testing.T) {
	db := buildWatermarkDB(t)
	v := db.Version()
	// g7.a sits at position 7 with prob 0.6; reweighting it to the same
	// value changes nothing, so nothing is dirty.
	if err := db.Reweight(7, []float64{0.6}); err != nil {
		t.Fatal(err)
	}
	if db.Version() == v {
		t.Fatal("reweight must bump the version even when values are unchanged")
	}
	expectDirty(t, db, v, db.NumTuples())
}

func TestDirtySinceLogIsBounded(t *testing.T) {
	db := buildWatermarkDB(t)
	v := db.Version()
	for i := 0; i < maxMarks+20; i++ {
		if err := db.Reweight(5, []float64{0.3 + 0.4*float64(i%2)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(db.marks) > maxMarks {
		t.Fatalf("watermark log holds %d entries, cap is %d", len(db.marks), maxMarks)
	}
	if _, ok := db.DirtySince(v); ok {
		t.Error("a version older than the bounded log must be unanswerable")
	}
	// Recent versions still answer.
	expectDirty(t, db, db.Version(), db.NumTuples())
	recent := db.Version()
	if err := db.DeleteXTuple(0); err != nil {
		t.Fatal(err)
	}
	expectDirty(t, db, recent, 0)
}

func TestBatchSingleCommit(t *testing.T) {
	db := buildWatermarkDB(t)
	v := db.Version()
	err := db.Batch(func(b *Batch) error {
		if err := b.InsertXTuple("b1", Tuple{ID: "b1.a", Attrs: []float64{55}, Prob: 0.8}); err != nil {
			return err
		}
		if err := b.Reweight(2, []float64{0.9}); err != nil {
			return err
		}
		return b.DeleteXTuple(9)
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.Version() != v+1 {
		t.Fatalf("batch bumped version to %d, want exactly one bump to %d", db.Version(), v+1)
	}
	// Merged watermark: min(insert at 55 -> pos 5, reweight g2.a -> pos 2,
	// delete g9.a -> below both) = 2.
	expectDirty(t, db, v, 2)
	assertSameOrder(t, db, rebuildFrom(t, db))
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchEmptyDoesNotBumpVersion(t *testing.T) {
	db := buildWatermarkDB(t)
	v := db.Version()
	if err := db.Batch(func(b *Batch) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if db.Version() != v {
		t.Fatal("an empty batch must not bump the version")
	}
}

func TestBatchErrorKeepsAppliedMutationsAndCommits(t *testing.T) {
	db := buildWatermarkDB(t)
	v := db.Version()
	sentinel := errors.New("caller stops here")
	err := db.Batch(func(b *Batch) error {
		if err := b.InsertAbsentXTuple("gone"); err != nil {
			return err
		}
		if err := b.DeleteXTuple(99); !errors.Is(err, ErrBadGroupIndex) {
			t.Fatalf("bad delete inside batch: %v", err)
		}
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("batch error = %v, want the callback's", err)
	}
	// The successful insert is committed under a version bump; the failed
	// delete changed nothing.
	if db.Version() != v+1 {
		t.Fatalf("version %d, want %d", db.Version(), v+1)
	}
	if !db.Groups()[db.NumGroups()-1].Absent() {
		t.Fatal("the successful mutation must stay applied")
	}
	assertSameOrder(t, db, rebuildFrom(t, db))
}

func TestBatchRequiresBuild(t *testing.T) {
	db := New()
	if err := db.Batch(func(b *Batch) error { return nil }); !errors.Is(err, ErrNotBuilt) {
		t.Fatalf("got %v, want ErrNotBuilt", err)
	}
}

// TestMutationsKeepIndexesConsistent pins the range-limited fixup: after
// every mutation (and batch), each tuple's Index() must equal its position
// and NumRealTuples must match a recount — the quantities finishMutation
// now maintains incrementally instead of recomputing.
func TestMutationsKeepIndexesConsistent(t *testing.T) {
	db := buildWatermarkDB(t)
	check := func(stage string) {
		t.Helper()
		real := 0
		for i, tp := range db.Sorted() {
			if tp.Index() != i {
				t.Fatalf("%s: tuple %s has index %d at position %d", stage, tp.ID, tp.Index(), i)
			}
			if !tp.Null {
				real++
			}
		}
		if db.NumRealTuples() != real {
			t.Fatalf("%s: NumRealTuples = %d, recount %d", stage, db.NumRealTuples(), real)
		}
	}
	if err := db.InsertXTuple("i", Tuple{ID: "i.a", Attrs: []float64{95}, Prob: 0.5}); err != nil {
		t.Fatal(err)
	}
	check("insert")
	if err := db.DeleteXTuple(3); err != nil {
		t.Fatal(err)
	}
	check("delete")
	if err := db.Reweight(5, []float64{0.2}); err != nil {
		t.Fatal(err)
	}
	check("reweight")
	if err := db.Collapse(5, 1); err != nil {
		t.Fatal(err)
	}
	check("collapse")
	err := db.Batch(func(b *Batch) error {
		if err := b.InsertAbsentXTuple("gone"); err != nil {
			return err
		}
		return b.Collapse(0, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	check("batch")
}

// TestNullAlternativeStaysLast pins the "null is last" invariant that
// XTuple.RealTuples and NullTuple rely on, across every mutation sequence
// that touches the null: Build materialization, mutation-time insert,
// reweight create/update/remove cycles, and collapse. Reweight's
// null-removal branch removes the null by identity from both the x-tuple
// and the rank array, so the two representations can never diverge even
// if the invariant were to break.
func TestNullAlternativeStaysLast(t *testing.T) {
	checkNullLast := func(stage string, db *Database) {
		t.Helper()
		for _, x := range db.Groups() {
			nulls := 0
			for i, tp := range x.Tuples {
				if tp.Null {
					nulls++
					if i != len(x.Tuples)-1 {
						t.Fatalf("%s: x-tuple %q holds its null at position %d of %d",
							stage, x.Name, i, len(x.Tuples))
					}
				}
			}
			if nulls > 1 {
				t.Fatalf("%s: x-tuple %q holds %d nulls", stage, x.Name, nulls)
			}
			if n := x.NullTuple(); (n != nil) != (nulls == 1) {
				t.Fatalf("%s: x-tuple %q NullTuple()=%v disagrees with count %d", stage, x.Name, n, nulls)
			}
			for _, tp := range x.RealTuples() {
				if tp.Null {
					t.Fatalf("%s: x-tuple %q leaks its null through RealTuples", stage, x.Name)
				}
			}
		}
	}
	db := buildWatermarkDB(t)
	checkNullLast("build", db)
	if err := db.InsertXTuple("n", Tuple{ID: "n.a", Attrs: []float64{50}, Prob: 0.4}); err != nil {
		t.Fatal(err)
	}
	checkNullLast("insert with deficit", db)
	l := db.NumGroups() - 1
	// Reweight cycle on the inserted group: update the null, remove it,
	// re-create it.
	for i, probs := range [][]float64{{0.7}, {1}, {0.25}} {
		if err := db.Reweight(l, probs); err != nil {
			t.Fatal(err)
		}
		checkNullLast(fmt.Sprintf("reweight cycle %d", i), db)
	}
	// Same cycle on a build-time null group.
	for i, probs := range [][]float64{{0.9}, {1}, {0.6}} {
		if err := db.Reweight(7, probs); err != nil {
			t.Fatal(err)
		}
		checkNullLast(fmt.Sprintf("reweight build-null cycle %d", i), db)
	}
	if err := db.Collapse(l, 1); err != nil { // collapse to the null
		t.Fatal(err)
	}
	checkNullLast("collapse to null", db)
	if err := db.Collapse(7, 0); err != nil { // collapse to the real
		t.Fatal(err)
	}
	checkNullLast("collapse to real", db)
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotWatermarksSurviveCommits pins the shared watermark log: a
// pinned snapshot answers DirtySince and GroupIndicesStableSince exactly
// as it did when pinned, for every version its log covers, across 300
// further commits — more than enough to trim and reallocate the writer's
// log twice — including renumbering deletes.
func TestSnapshotWatermarksSurviveCommits(t *testing.T) {
	db := buildWatermarkDB(t)
	step := 0
	commit := func() {
		t.Helper()
		step++
		var err error
		switch {
		case step%7 == 0:
			err = db.InsertXTuple(fmt.Sprintf("N%d", step),
				Tuple{ID: fmt.Sprintf("n%d", step), Attrs: []float64{float64(step % 97)}, Prob: 0.5})
		case step%7 == 3 && db.NumGroups() > 10:
			err = db.DeleteXTuple(step % db.NumGroups())
		default:
			g := step % db.NumGroups()
			err = db.Reweight(g, []float64{0.2 + 0.1*float64(step%5)})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < maxMarks+30; i++ {
		commit()
	}
	snap := db.Snapshot()
	type answer struct {
		wm         int
		ok, stable bool
	}
	pinned := map[uint64]answer{}
	for v := snap.Version() - maxMarks - 5; v <= snap.Version(); v++ {
		wm, ok := snap.DirtySince(v)
		pinned[v] = answer{wm, ok, snap.GroupIndicesStableSince(v)}
	}
	for i := 0; i < 300; i++ {
		commit()
	}
	for v, want := range pinned {
		wm, ok := snap.DirtySince(v)
		if got := (answer{wm, ok, snap.GroupIndicesStableSince(v)}); got != want {
			t.Fatalf("snapshot at version %d: answer for %d changed from %+v to %+v after 300 commits",
				snap.Version(), v, want, got)
		}
	}
}

// TestCommitDoesNotCopyWatermarkLog pins the log's share of a commit: a
// commit costs the same bytes whether the log holds a few marks or is
// full. Copying the log on the first mutation after every publish made a
// full-log commit 3 KiB dearer; appending past the published length
// costs one reallocation per maxMarks commits.
func TestCommitDoesNotCopyWatermarkLog(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts shift under the race detector")
	}
	db := buildWatermarkDB(t)
	flip := false
	perCommit := func(runs int) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			flip = !flip
			p := 0.3
			if flip {
				p = 0.7
			}
			if err := db.Reweight(7, []float64{p}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
	}
	short := perCommit(maxMarks / 2) // the log holds at most maxMarks/2 marks
	perCommit(2 * maxMarks)          // fill it
	full := perCommit(4 * maxMarks)
	logBytes := float64(maxMarks * unsafe.Sizeof(versionMark{}))
	if full-short > logBytes/4 {
		t.Fatalf("a commit allocates %.0f bytes with a full log, %.0f with a short one; the full log is %.0f bytes",
			full, short, logBytes)
	}
}
