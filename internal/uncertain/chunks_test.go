package uncertain

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/probdb/topkclean/internal/cowvec"
)

// leafLens returns the number of tuples in each leaf of db's rank order.
func leafLens(db *Database) []int {
	var out []int
	for xs := range db.rs.Leaves() {
		out = append(out, len(xs))
	}
	return out
}

// checkChunkInvariants verifies the deep invariants of the rank order on a
// live (writer) database: the structural checks of cowvec.Seq.Check, and
// the writer-epoch homes — every tuple sits in a leaf, non-nil, and its
// home gives back exactly its position, which holds only if the home
// names the writer's current copy of that leaf and every header on the
// path up records its node's index. These are the invariants removeSorted
// and the redirect in cowGroup rely on, so any drift here eventually
// corrupts a mutation.
func checkChunkInvariants(t *testing.T, db *Database) {
	t.Helper()
	if err := db.rs.Check(); err != nil {
		t.Fatal(err)
	}
	pos := 0
	for xs := range db.rs.Leaves() {
		for off, tp := range xs {
			if tp == nil {
				t.Fatalf("leaf at rank %d holds nil tuple at offset %d", pos-off, off)
			}
			if got := tp.Index(); got != pos {
				t.Fatalf("tuple %s Index()=%d, want %d", tp.ID, got, pos)
			}
			pos++
		}
	}
	if pos != db.NumTuples() {
		t.Fatalf("leaves hold %d tuples, NumTuples says %d", pos, db.NumTuples())
	}
}

// buildWideDB builds a database with enough tuples to span many leaves:
// groups x-tuples with alternatives-per-group alternatives each (plus
// materialized nulls for the mass deficit), scores drawn from rng.
func buildWideDB(t *testing.T, rng *rand.Rand, groups, alts int) *Database {
	t.Helper()
	db := New()
	for g := 0; g < groups; g++ {
		ts := make([]Tuple, alts)
		for i := range ts {
			ts[i] = Tuple{
				ID:    fmt.Sprintf("g%d.%d", g, i),
				Attrs: []float64{rng.Float64() * 1000},
				Prob:  (0.05 + 0.9*rng.Float64()) / float64(alts),
			}
		}
		if err := db.AddXTuple(fmt.Sprintf("G%d", g), ts...); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Build(ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestChunkStoreShape checks that Build leaves its leaves at half of
// cowvec.Width and that seeks resolve every boundary position.
func TestChunkStoreShape(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	db := buildWideDB(t, rng, 400, 3) // 1200 real + ~400 nulls, many leaves
	checkChunkInvariants(t, db)
	n := db.NumTuples()
	lens := leafLens(db)
	if len(lens) < 2 {
		t.Fatalf("expected a multi-leaf rank order for n=%d, got %d leaves", n, len(lens))
	}
	for i, l := range lens {
		if l > cowvec.Width/2 && i < len(lens)-1 || l > cowvec.Width {
			t.Fatalf("build-time leaf %d of %d holds %d tuples, fill is %d", i, len(lens), l, cowvec.Width/2)
		}
	}
	sorted := db.Sorted()
	if len(sorted) != n {
		t.Fatalf("Sorted() returned %d tuples, NumTuples says %d", len(sorted), n)
	}
	const fill = cowvec.Width / 2
	for _, pos := range []int{0, 1, fill - 1, fill, fill + 1, n - 1} {
		if got := db.AtRank(pos); got != sorted[pos] {
			t.Fatalf("AtRank(%d) = %v, want %s", pos, got, sorted[pos].ID)
		}
	}
	if db.AtRank(-1) != nil || db.AtRank(n) != nil {
		t.Fatal("AtRank out of range must return nil")
	}
}

// TestCursorMatchesSorted walks cursors from every leaf-boundary-adjacent
// start position and checks they produce exactly the Sorted() suffix.
func TestCursorMatchesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := buildWideDB(t, rng, 300, 3)
	sorted := db.Sorted()
	n := len(sorted)
	starts := []int{0, 1, n / 2, n - 1, n, n + 5}
	c := 0
	for _, l := range leafLens(db) {
		starts = append(starts, c-1, c, c+1)
		c += l
	}
	for _, from := range starts {
		if from < 0 {
			continue
		}
		cur := db.CursorAt(from)
		i := from
		for tp := cur.Next(); tp != nil; tp = cur.Next() {
			if i >= n {
				t.Fatalf("cursor from %d ran past the end", from)
			}
			if tp != sorted[i] {
				t.Fatalf("cursor from %d: position %d yields %s, want %s", from, i, tp.ID, sorted[i].ID)
			}
			i++
		}
		if from <= n && i != n {
			t.Fatalf("cursor from %d stopped at %d, want %d", from, i, n)
		}
	}
}

// TestChunkSplitOnClusteredInserts hammers one score region with inserts so
// a single leaf must split repeatedly, then checks structure and order.
func TestChunkSplitOnClusteredInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := buildWideDB(t, rng, 200, 2)
	before := len(leafLens(db))
	// All inserts score inside a narrow band, landing in the same leaf
	// neighbourhood every time.
	for i := 0; i < 3*cowvec.Width; i++ {
		id := fmt.Sprintf("clust%d", i)
		score := 500 + rng.Float64() // narrow band
		if err := db.InsertXTuple("X"+id, Tuple{ID: id, Attrs: []float64{score}, Prob: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	checkChunkInvariants(t, db)
	if after := len(leafLens(db)); after <= before {
		t.Fatalf("expected splits to grow the order past %d leaves, have %d", before, after)
	}
	assertSameOrder(t, db, rebuildFrom(t, db))
}

// TestChunkMergeOnMassDeletes deletes most x-tuples and checks the order
// rebalances: no leaf below cowvec.Width/4 beside a neighbour, anywhere
// in the order, that it fits with, and the order still matches a rebuild.
func TestChunkMergeOnMassDeletes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db := buildWideDB(t, rng, 400, 3)
	for db.NumGroups() > 12 {
		if err := db.DeleteXTuple(rng.Intn(db.NumGroups())); err != nil {
			t.Fatal(err)
		}
	}
	checkChunkInvariants(t, db)
	lens := leafLens(db)
	for i := 1; i < len(lens); i++ {
		// Slivers should have been merged away; a small leaf may stay only
		// beside neighbours too full to take it.
		if min(lens[i-1], lens[i]) < cowvec.Width/4 && lens[i-1]+lens[i] <= cowvec.Width {
			t.Fatalf("leaves %d and %d hold %d and %d tuples (min %d): a mergeable pair",
				i-1, i, lens[i-1], lens[i], cowvec.Width/4)
		}
	}
	assertSameOrder(t, db, rebuildFrom(t, db))
}

// TestChunkStressMixedMutations is the rank-order property test: a
// long randomized script of every mutation kind over a multi-leaf
// database, with the deep invariants checked after every step and the
// order cross-checked against a full rebuild periodically.
func TestChunkStressMixedMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	db := buildWideDB(t, rng, 500, 3)
	nextID := 0
	for step := 0; step < 300; step++ {
		m := db.NumGroups()
		switch rng.Intn(5) {
		case 0, 1: // insert (weighted up to keep the db growing past splits)
			n := 1 + rng.Intn(4)
			ts := make([]Tuple, n)
			for i := range ts {
				ts[i] = Tuple{
					ID:    fmt.Sprintf("s%d.%d", nextID, i),
					Attrs: []float64{rng.Float64() * 1000},
					Prob:  (0.05 + 0.9*rng.Float64()) / float64(n),
				}
			}
			nextID++
			if err := db.InsertXTuple(fmt.Sprintf("S%d", nextID), ts...); err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
		case 2:
			if m > 10 {
				if err := db.DeleteXTuple(rng.Intn(m)); err != nil {
					t.Fatalf("step %d delete: %v", step, err)
				}
			}
		case 3:
			l := rng.Intn(m)
			real := db.Groups()[l].RealTuples()
			if len(real) == 0 {
				continue
			}
			probs := make([]float64, len(real))
			for i := range probs {
				probs[i] = (0.05 + 0.9*rng.Float64()) / float64(len(probs))
			}
			if err := db.Reweight(l, probs); err != nil {
				t.Fatalf("step %d reweight: %v", step, err)
			}
		case 4:
			l := rng.Intn(m)
			g := db.Groups()[l]
			if err := db.Collapse(l, rng.Intn(len(g.Tuples))); err != nil {
				t.Fatalf("step %d collapse: %v", step, err)
			}
		}
		checkChunkInvariants(t, db)
		if step%25 == 24 {
			assertSameOrder(t, db, rebuildFrom(t, db))
		}
	}
	assertSameOrder(t, db, rebuildFrom(t, db))
}

// TestSnapshotUnchangedByChunkMutations pins a snapshot, then mutates the
// writer hard enough to split and merge leaves the snapshot shares. The
// snapshot's order, probabilities, and structure must be bit-identical
// throughout — the node-granular COW contract.
func TestSnapshotUnchangedByChunkMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	db := buildWideDB(t, rng, 300, 3)
	snap := db.Snapshot()
	wantIDs := make([]string, 0, snap.NumTuples())
	wantProbs := make([]uint64, 0, snap.NumTuples())
	for cur := snap.CursorAt(0); ; {
		tp := cur.Next()
		if tp == nil {
			break
		}
		wantIDs = append(wantIDs, tp.ID)
		wantProbs = append(wantProbs, math.Float64bits(tp.Prob))
	}

	for i := 0; i < 2*cowvec.Width; i++ {
		id := fmt.Sprintf("w%d", i)
		if err := db.InsertXTuple("X"+id, Tuple{ID: id, Attrs: []float64{400 + rng.Float64()}, Prob: 0.4}); err != nil {
			t.Fatal(err)
		}
	}
	for db.NumGroups() > 100 {
		if err := db.DeleteXTuple(rng.Intn(db.NumGroups())); err != nil {
			t.Fatal(err)
		}
	}
	checkChunkInvariants(t, db)

	if err := snap.Validate(); err != nil {
		t.Fatalf("snapshot invalid after writer mutations: %v", err)
	}
	i := 0
	for cur := snap.CursorAt(0); ; i++ {
		tp := cur.Next()
		if tp == nil {
			break
		}
		if i >= len(wantIDs) || tp.ID != wantIDs[i] {
			t.Fatalf("snapshot position %d changed under writer mutations", i)
		}
		if math.Float64bits(tp.Prob) != wantProbs[i] {
			t.Fatalf("snapshot tuple %s probability changed under writer mutations", tp.ID)
		}
	}
	if i != len(wantIDs) {
		t.Fatalf("snapshot shrank to %d tuples, want %d", i, len(wantIDs))
	}
}

// TestIndexAcrossCloneSplitMerge pins Index through the leaf header: after
// every commit — each one clones the nodes it touches, since Build and
// every commit publish — every tuple's Index is its position in the rank
// order, through a run of inserts into one leaf until it splits and a run
// of deletes out of one leaf until it merges with a neighbour.
func TestIndexAcrossCloneSplitMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	db := buildWideDB(t, rng, 600, 3)
	checkIndex := func(stage string) {
		t.Helper()
		for i, tp := range db.Sorted() {
			if got := tp.Index(); got != i {
				t.Fatalf("%s: tuple %s Index() = %d, rank position %d", stage, tp.ID, got, i)
			}
		}
		checkChunkInvariants(t, db)
	}
	checkIndex("built")

	// Clone: reweight one x-tuple, so only its leaves and their paths are
	// copied.
	real := db.GroupAt(7).RealTuples()
	probs := make([]float64, len(real))
	for i := range probs {
		probs[i] = 0.8 / float64(len(probs))
	}
	if err := db.Reweight(7, probs); err != nil {
		t.Fatal(err)
	}
	checkIndex("reweight")

	// Split: insert just above one mid-order tuple until its leaf splits.
	leaves := len(leafLens(db))
	anchor := db.AtRank(db.NumTuples() / 2).Score
	for i := 0; len(leafLens(db)) == leaves; i++ {
		if i > 2*cowvec.Width {
			t.Fatal("no split after inserting twice the split threshold into one leaf")
		}
		err := db.InsertXTuple(fmt.Sprintf("S%d", i),
			Tuple{ID: fmt.Sprintf("s%d", i), Attrs: []float64{anchor + 1e-9*float64(i+1)}, Prob: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		checkIndex(fmt.Sprintf("insert %d", i))
	}

	// Merge: delete the x-tuples of one leaf's tuples until it merges.
	leaves = len(leafLens(db))
	for i := 0; len(leafLens(db)) >= leaves; i++ {
		if i > cowvec.Width {
			t.Fatal("no merge after deleting a leaf's worth of x-tuples")
		}
		var tp *Tuple
		k := 0
		for xs := range db.rs.Leaves() {
			if k++; k == 3 {
				tp = xs[0]
				break
			}
		}
		if err := db.DeleteXTuple(tp.Group); err != nil {
			t.Fatal(err)
		}
		checkIndex(fmt.Sprintf("delete %d", i))
	}
}
