package uncertain

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// checkChunkInvariants verifies the deep invariants of the chunked rank
// structure on a live (writer) database: the structural spine checks of
// rankStore.check, plus the writer-epoch caches — every chunk's pos/start
// agree with its spine position, and every tuple's home/idx back-pointers
// locate it exactly. These are the invariants remove() and the COW redirect
// in cowGroup rely on, so any drift here eventually corrupts a mutation.
func checkChunkInvariants(t *testing.T, db *Database) {
	t.Helper()
	rs := &db.rs
	if err := rs.check(); err != nil {
		t.Fatal(err)
	}
	for ci, c := range rs.chunks {
		// Shared (priv != epoch) chunks are legal, but their writer caches
		// must still be fresh: remove() trusts home.pos/idx unconditionally.
		if c.pos != ci {
			t.Fatalf("chunk %d caches pos %d", ci, c.pos)
		}
		if c.start != rs.starts[ci] {
			t.Fatalf("chunk %d caches start %d, spine says %d", ci, c.start, rs.starts[ci])
		}
		for off, tp := range c.tuples {
			if tp == nil {
				t.Fatalf("chunk %d holds nil tuple at offset %d", ci, off)
			}
			//lint:allow idxread the invariant checker audits the writer-epoch caches themselves, on the live epoch only
			if tp.home != c.chunkHome {
				t.Fatalf("tuple %s in chunk %d has foreign home", tp.ID, ci)
			}
			//lint:allow idxread same audit: idx must equal the tuple's actual chunk offset
			if cached := tp.idx; cached != off {
				t.Fatalf("tuple %s at chunk %d offset %d caches idx %d", tp.ID, ci, off, cached)
			}
			if got := tp.Index(); got != rs.starts[ci]+off {
				t.Fatalf("tuple %s Index()=%d, want %d", tp.ID, got, rs.starts[ci]+off)
			}
		}
	}
}

// buildWideDB builds a database with enough tuples to span many chunks:
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

// TestChunkStoreShape checks that Build produces target-sized chunks and
// that seeks resolve every boundary position.
func TestChunkStoreShape(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	db := buildWideDB(t, rng, 400, 3) // 1200 real + ~400 nulls, several chunks
	checkChunkInvariants(t, db)
	n := db.NumTuples()
	if len(db.rs.chunks) < 2 {
		t.Fatalf("expected a multi-chunk spine for n=%d, got %d chunks", n, len(db.rs.chunks))
	}
	for _, c := range db.rs.chunks {
		if len(c.tuples) > chunkTarget {
			t.Fatalf("build-time chunk holds %d tuples, target is %d", len(c.tuples), chunkTarget)
		}
	}
	sorted := db.Sorted()
	if len(sorted) != n {
		t.Fatalf("Sorted() returned %d tuples, NumTuples says %d", len(sorted), n)
	}
	for _, pos := range []int{0, 1, chunkTarget - 1, chunkTarget, chunkTarget + 1, n - 1} {
		if got := db.AtRank(pos); got != sorted[pos] {
			t.Fatalf("AtRank(%d) = %v, want %s", pos, got, sorted[pos].ID)
		}
	}
	if db.AtRank(-1) != nil || db.AtRank(n) != nil {
		t.Fatal("AtRank out of range must return nil")
	}
}

// TestCursorMatchesSorted walks cursors from every chunk-boundary-adjacent
// start position and checks they produce exactly the Sorted() suffix.
func TestCursorMatchesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := buildWideDB(t, rng, 300, 3)
	sorted := db.Sorted()
	n := len(sorted)
	starts := []int{0, 1, n / 2, n - 1, n, n + 5}
	for _, c := range db.rs.starts {
		starts = append(starts, c-1, c, c+1)
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
// a single chunk must split repeatedly, then checks structure and order.
func TestChunkSplitOnClusteredInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := buildWideDB(t, rng, 200, 2)
	before := len(db.rs.chunks)
	// All inserts score inside a narrow band, landing in the same chunk
	// neighbourhood every time.
	for i := 0; i < 3*chunkMax; i++ {
		id := fmt.Sprintf("clust%d", i)
		score := 500 + rng.Float64() // narrow band
		if err := db.InsertXTuple("X"+id, Tuple{ID: id, Attrs: []float64{score}, Prob: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	checkChunkInvariants(t, db)
	if len(db.rs.chunks) <= before {
		t.Fatalf("expected splits to grow the spine past %d chunks, have %d", before, len(db.rs.chunks))
	}
	assertSameOrder(t, db, rebuildFrom(t, db))
}

// TestChunkMergeOnMassDeletes deletes most x-tuples and checks the spine
// rebalances: no chunk below chunkMin (except a lone survivor) and the
// order still matches a rebuild.
func TestChunkMergeOnMassDeletes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db := buildWideDB(t, rng, 400, 3)
	for db.NumGroups() > 12 {
		if err := db.DeleteXTuple(rng.Intn(db.NumGroups())); err != nil {
			t.Fatal(err)
		}
	}
	checkChunkInvariants(t, db)
	if nc := len(db.rs.chunks); nc > 1 {
		for ci, c := range db.rs.chunks {
			if len(c.tuples) < chunkMin && ci != nc-1 {
				// Mid-spine slivers should have been merged away; the last
				// chunk may stay small only when its neighbour is full.
				prev := db.rs.chunks[ci-1]
				if len(prev.tuples)+len(c.tuples) <= chunkMax {
					t.Fatalf("chunk %d holds %d tuples (< min %d) with a mergeable neighbour", ci, len(c.tuples), chunkMin)
				}
			}
		}
	}
	assertSameOrder(t, db, rebuildFrom(t, db))
}

// TestChunkStressMixedMutations is the chunk-structure property test: a
// long randomized script of every mutation kind over a multi-chunk
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
// writer hard enough to split and merge chunks the snapshot shares. The
// snapshot's order, probabilities, and structure must be bit-identical
// throughout — the chunk-granular COW contract.
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

	for i := 0; i < 2*chunkMax; i++ {
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

// TestIndexAcrossCloneSplitMerge pins Index through the chunk header: after
// every commit — each one clones the chunks it touches, since Build and
// every commit publish — every tuple's Index is its position in the rank
// order, through a run of inserts into one chunk until it splits and a
// run of deletes out of one chunk until it merges with a neighbour.
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

	// Clone: reweight one x-tuple, so only its chunks are copied.
	real := db.GroupAt(7).RealTuples()
	probs := make([]float64, len(real))
	for i := range probs {
		probs[i] = 0.8 / float64(len(probs))
	}
	if err := db.Reweight(7, probs); err != nil {
		t.Fatal(err)
	}
	checkIndex("reweight")

	// Split: insert just above one mid-order tuple until its chunk splits.
	chunks := len(db.rs.chunks)
	anchor := db.AtRank(db.NumTuples() / 2).Score
	for i := 0; len(db.rs.chunks) == chunks; i++ {
		if i > 2*chunkMax {
			t.Fatal("no split after inserting twice the split threshold into one chunk")
		}
		err := db.InsertXTuple(fmt.Sprintf("S%d", i),
			Tuple{ID: fmt.Sprintf("s%d", i), Attrs: []float64{anchor + 1e-9*float64(i+1)}, Prob: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		checkIndex(fmt.Sprintf("insert %d", i))
	}

	// Merge: delete the x-tuples of one chunk's tuples until it merges.
	chunks = len(db.rs.chunks)
	for i := 0; len(db.rs.chunks) >= chunks; i++ {
		if i > chunkMax {
			t.Fatal("no merge after deleting a chunk's worth of x-tuples")
		}
		tp := db.rs.chunks[2].tuples[0]
		if err := db.DeleteXTuple(tp.Group); err != nil {
			t.Fatal(err)
		}
		checkIndex(fmt.Sprintf("delete %d", i))
	}
}
