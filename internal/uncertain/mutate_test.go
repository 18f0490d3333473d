package uncertain

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// rebuildFrom constructs a fresh database holding the same content as db,
// via the staging API — the full-rebuild baseline every mutation must be
// equivalent to.
func rebuildFrom(t *testing.T, db *Database) *Database {
	t.Helper()
	out := New()
	for _, g := range db.Groups() {
		real := g.RealTuples()
		if len(real) == 0 {
			if err := out.AddAbsentXTuple(g.Name); err != nil {
				t.Fatal(err)
			}
			continue
		}
		ts := make([]Tuple, 0, len(real))
		for _, tp := range real {
			ts = append(ts, Tuple{ID: tp.ID, Attrs: tp.Attrs, Prob: tp.Prob})
		}
		if err := out.AddXTuple(g.Name, ts...); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.Build(db.Rank()); err != nil {
		t.Fatal(err)
	}
	return out
}

// assertSameOrder checks that the mutated database's rank order, group
// assignments, probabilities, and counts agree exactly with the rebuilt
// baseline, and that the model invariants hold.
func assertSameOrder(t *testing.T, mutated, rebuilt *Database) {
	t.Helper()
	if err := mutated.Validate(); err != nil {
		t.Fatalf("mutated database invalid: %v", err)
	}
	ms, rs := mutated.Sorted(), rebuilt.Sorted()
	if len(ms) != len(rs) {
		t.Fatalf("rank array length %d, rebuilt %d", len(ms), len(rs))
	}
	for i := range ms {
		if ms[i].ID != rs[i].ID {
			t.Fatalf("rank %d: %s, rebuilt has %s", i, ms[i].ID, rs[i].ID)
		}
		if ms[i].Prob != rs[i].Prob {
			t.Fatalf("tuple %s prob %v, rebuilt %v", ms[i].ID, ms[i].Prob, rs[i].Prob)
		}
		if ms[i].Score != rs[i].Score {
			t.Fatalf("tuple %s score %v, rebuilt %v", ms[i].ID, ms[i].Score, rs[i].Score)
		}
		if ms[i].Group != rs[i].Group {
			t.Fatalf("tuple %s group %d, rebuilt %d", ms[i].ID, ms[i].Group, rs[i].Group)
		}
		if ms[i].Null != rs[i].Null {
			t.Fatalf("tuple %s null flag %v, rebuilt %v", ms[i].ID, ms[i].Null, rs[i].Null)
		}
		if ms[i].Index() != i {
			t.Fatalf("tuple %s index %d at position %d", ms[i].ID, ms[i].Index(), i)
		}
	}
	if mutated.NumGroups() != rebuilt.NumGroups() {
		t.Fatalf("groups %d, rebuilt %d", mutated.NumGroups(), rebuilt.NumGroups())
	}
	if mutated.NumRealTuples() != rebuilt.NumRealTuples() {
		t.Fatalf("real tuples %d, rebuilt %d", mutated.NumRealTuples(), rebuilt.NumRealTuples())
	}
}

func TestInsertXTupleMatchesRebuild(t *testing.T) {
	db := buildUDB1(t)
	// An uncertain x-tuple with a mass deficit (materializes a null), one
	// alternative tying an existing score (21, like t0) to exercise the
	// arrival-order tie-break, and one ranking above everything.
	err := db.InsertXTuple("S5",
		Tuple{ID: "n0", Attrs: []float64{21}, Prob: 0.5},
		Tuple{ID: "n1", Attrs: []float64{40}, Prob: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.InsertXTuple("S6", Tuple{ID: "n2", Attrs: []float64{26}, Prob: 1}); err != nil {
		t.Fatal(err)
	}
	assertSameOrder(t, db, rebuildFrom(t, db))
	// The tie at score 21 breaks by arrival: build-time t0 before n0.
	if t0, n0 := db.TupleByID("t0"), db.TupleByID("n0"); t0.Index() > n0.Index() {
		t.Fatalf("arrival-order tie-break violated: t0 at %d, n0 at %d", t0.Index(), n0.Index())
	}
	// The tie at score 26 breaks by arrival too: t6 before n2.
	if t6, n2 := db.TupleByID("t6"), db.TupleByID("n2"); t6.Index() > n2.Index() {
		t.Fatalf("arrival-order tie-break violated: t6 at %d, n2 at %d", t6.Index(), n2.Index())
	}
}

func TestInsertAbsentXTupleMatchesRebuild(t *testing.T) {
	db := buildUDB1(t)
	if err := db.InsertAbsentXTuple("gone"); err != nil {
		t.Fatal(err)
	}
	assertSameOrder(t, db, rebuildFrom(t, db))
	g, err := db.Group(db.NumGroups() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Absent() {
		t.Fatal("inserted absent x-tuple is not Absent()")
	}
}

func TestDeleteXTupleMatchesRebuild(t *testing.T) {
	db := buildUDB1(t)
	// Give two groups nulls first so the null suffix order is exercised.
	if err := db.Reweight(0, []float64{0.5, 0.3}); err != nil {
		t.Fatal(err)
	}
	if err := db.Reweight(3, []float64{0.9}); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteXTuple(1); err != nil { // middle group: renumbering
		t.Fatal(err)
	}
	assertSameOrder(t, db, rebuildFrom(t, db))
	if db.NumGroups() != 3 {
		t.Fatalf("groups = %d, want 3", db.NumGroups())
	}
}

func TestReweightMatchesRebuild(t *testing.T) {
	db := buildUDB1(t)
	// Create a null (mass 0.8 < 1) ...
	if err := db.Reweight(2, []float64{0.3, 0.5}); err != nil {
		t.Fatal(err)
	}
	assertSameOrder(t, db, rebuildFrom(t, db))
	if db.Groups()[2].NullTuple() == nil {
		t.Fatal("reweight to deficit mass must materialize a null")
	}
	// ... then remove it again (mass back to 1).
	if err := db.Reweight(2, []float64{0.45, 0.55}); err != nil {
		t.Fatal(err)
	}
	assertSameOrder(t, db, rebuildFrom(t, db))
	if db.Groups()[2].NullTuple() != nil {
		t.Fatal("reweight to full mass must drop the null")
	}
	// ... and update an existing null in place.
	if err := db.Reweight(2, []float64{0.1, 0.2}); err != nil {
		t.Fatal(err)
	}
	if n := db.Groups()[2].NullTuple(); n == nil || n.Prob < 0.69 || n.Prob > 0.71 {
		t.Fatalf("null prob = %v, want 0.7", db.Groups()[2].NullTuple())
	}
	assertSameOrder(t, db, rebuildFrom(t, db))
}

func TestCollapseMatchesCleaned(t *testing.T) {
	for _, tc := range []struct {
		name      string
		l, choice int
	}{
		{"real-alternative", 0, 1},
		{"certain-group", 3, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := buildUDB1(t)
			want, err := db.Cleaned(map[int]int{tc.l: tc.choice})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Collapse(tc.l, tc.choice); err != nil {
				t.Fatal(err)
			}
			assertSameOrder(t, db, want)
			if !db.Groups()[tc.l].Certain() {
				t.Fatal("collapsed x-tuple is not Certain()")
			}
		})
	}
}

func TestCollapseToNull(t *testing.T) {
	db := buildUDB1(t)
	if err := db.Reweight(1, []float64{0.4, 0.2}); err != nil { // gives S2 a null
		t.Fatal(err)
	}
	nullIdx := len(db.Groups()[1].Tuples) - 1
	want, err := db.Cleaned(map[int]int{1: nullIdx})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Collapse(1, nullIdx); err != nil {
		t.Fatal(err)
	}
	assertSameOrder(t, db, want)
	if !db.Groups()[1].Absent() {
		t.Fatal("collapsing to the null must leave the x-tuple Absent()")
	}
}

func TestVersionBumpsOnEveryMutation(t *testing.T) {
	db := New()
	if db.Version() != 0 {
		t.Fatalf("unbuilt version = %d, want 0", db.Version())
	}
	if err := db.AddXTuple("a", Tuple{ID: "x", Attrs: []float64{1}, Prob: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddXTuple("b", Tuple{ID: "y", Attrs: []float64{2}, Prob: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	v := db.Version()
	if v == 0 {
		t.Fatal("Build must bump the version")
	}
	steps := []func() error{
		func() error { return db.InsertXTuple("c", Tuple{ID: "z", Attrs: []float64{3}, Prob: 0.9}) },
		func() error { return db.Reweight(2, []float64{0.4}) },
		func() error { return db.Collapse(2, 0) },
		func() error { return db.DeleteXTuple(2) },
		func() error { return db.InsertAbsentXTuple("gone") },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if db.Version() <= v {
			t.Fatalf("step %d: version %d did not advance past %d", i, db.Version(), v)
		}
		v = db.Version()
	}
	if db.Clone().Version() != v {
		t.Fatal("Clone must preserve the version")
	}
}

func TestMutationErrorsLeaveDatabaseUnchanged(t *testing.T) {
	db := buildUDB1(t)
	v := db.Version()
	sortedBefore := fmt.Sprint(db.Sorted())
	cases := []struct {
		name string
		call func() error
		want error
	}{
		{"insert empty", func() error { return db.InsertXTuple("E") }, ErrEmptyXTuple},
		{"insert dup id", func() error {
			return db.InsertXTuple("E", Tuple{ID: "t0", Attrs: []float64{1}, Prob: 0.5})
		}, ErrDuplicateID},
		{"insert intra-call dup", func() error {
			return db.InsertXTuple("E",
				Tuple{ID: "e0", Attrs: []float64{1}, Prob: 0.3},
				Tuple{ID: "e0", Attrs: []float64{2}, Prob: 0.3})
		}, ErrDuplicateID},
		{"insert id colliding with own null", func() error {
			// Mass 0.5 materializes "null:E", which the caller's ID shadows.
			return db.InsertXTuple("E", Tuple{ID: "null:E", Attrs: []float64{1}, Prob: 0.5})
		}, ErrDuplicateID},
		{"insert bad prob", func() error {
			return db.InsertXTuple("E", Tuple{ID: "e0", Attrs: []float64{1}, Prob: 1.5})
		}, ErrProbOutOfRange},
		{"insert excess mass", func() error {
			return db.InsertXTuple("E",
				Tuple{ID: "e0", Attrs: []float64{1}, Prob: 0.7},
				Tuple{ID: "e1", Attrs: []float64{2}, Prob: 0.7})
		}, ErrMassExceedsOne},
		{"delete bad index", func() error { return db.DeleteXTuple(99) }, ErrBadGroupIndex},
		{"reweight bad index", func() error { return db.Reweight(-1, nil) }, ErrBadGroupIndex},
		{"reweight wrong arity", func() error { return db.Reweight(0, []float64{0.5}) }, ErrBadReweight},
		{"reweight bad prob", func() error { return db.Reweight(0, []float64{0.5, -0.1}) }, ErrProbOutOfRange},
		{"reweight excess mass", func() error { return db.Reweight(0, []float64{0.8, 0.7}) }, ErrMassExceedsOne},
		{"collapse bad group", func() error { return db.Collapse(9, 0) }, ErrBadGroupIndex},
		{"collapse bad choice", func() error { return db.Collapse(0, 5) }, ErrBadChoice},
	}
	for _, tc := range cases {
		if err := tc.call(); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	if db.Version() != v {
		t.Fatal("failed mutations must not bump the version")
	}
	if fmt.Sprint(db.Sorted()) != sortedBefore {
		t.Fatal("failed mutations must leave the rank order unchanged")
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestReweightRefusesTakenNullID pins the duplicate-ID check on the null
// a reweight materializes: with x-tuple c holding a real tuple named
// null:a, a partial reweight of a must fail before it commits, or the
// database would hold two tuples of one ID (and a later delete of a would
// drop c's tuple from the ID index).
func TestReweightRefusesTakenNullID(t *testing.T) {
	db := New()
	if err := db.AddXTuple("a", Tuple{ID: "a.0", Attrs: []float64{3}, Prob: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddXTuple("b", Tuple{ID: "b.0", Attrs: []float64{2}, Prob: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertXTuple("c", Tuple{ID: "null:a", Attrs: []float64{1}, Prob: 1}); err != nil {
		t.Fatal(err)
	}
	v := db.Version()
	if err := db.Reweight(0, []float64{0.5}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("reweight materializing null:a beside its holder: err = %v, want ErrDuplicateID", err)
	}
	if db.Version() != v || db.GroupAt(0).NullTuple() != nil || db.GroupAt(0).Tuples[0].Prob != 1 {
		t.Fatal("the refused reweight changed the database")
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteXTuple(0); err != nil {
		t.Fatal(err)
	}
	if got := db.TupleByID("null:a"); got == nil || got.Null || db.GroupAt(got.Group).Name != "c" {
		t.Fatalf("after deleting a, TupleByID(null:a) = %v, want c's tuple", got)
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMutationsRequireBuild(t *testing.T) {
	db := New()
	if err := db.AddXTuple("a", Tuple{ID: "x", Attrs: []float64{1}, Prob: 0.5}); err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func() error{
		"insert":        func() error { return db.InsertXTuple("b", Tuple{ID: "y", Attrs: []float64{1}, Prob: 1}) },
		"insert absent": func() error { return db.InsertAbsentXTuple("b") },
		"delete":        func() error { return db.DeleteXTuple(0) },
		"reweight":      func() error { return db.Reweight(0, []float64{0.5}) },
		"collapse":      func() error { return db.Collapse(0, 0) },
	} {
		if err := call(); !errors.Is(err, ErrNotBuilt) {
			t.Errorf("%s on unbuilt db: got %v, want ErrNotBuilt", name, err)
		}
	}
}

func TestDeleteLastGroupRejected(t *testing.T) {
	db := New()
	if err := db.AddXTuple("only", Tuple{ID: "x", Attrs: []float64{1}, Prob: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(nil); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteXTuple(0); !errors.Is(err, ErrLastGroup) {
		t.Fatalf("got %v, want ErrLastGroup", err)
	}
}

// TestRandomMutationSequenceMatchesRebuild drives a randomized sequence of
// every mutation kind and checks the incremental rank order against a full
// rebuild after each step.
func TestRandomMutationSequenceMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	db := New()
	for g := 0; g < 20; g++ {
		n := 1 + rng.Intn(4)
		ts := make([]Tuple, n)
		mass := 0.0
		for i := range ts {
			p := 0.05 + rng.Float64()*(0.95/float64(n))
			mass += p
			ts[i] = Tuple{ID: fmt.Sprintf("g%d.%d", g, i), Attrs: []float64{rng.Float64() * 100}, Prob: p}
		}
		if err := db.AddXTuple(fmt.Sprintf("G%d", g), ts...); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Build(ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	nextID := 1000
	for step := 0; step < 120; step++ {
		m := db.NumGroups()
		switch rng.Intn(4) {
		case 0:
			n := 1 + rng.Intn(3)
			ts := make([]Tuple, n)
			for i := range ts {
				ts[i] = Tuple{
					ID:    fmt.Sprintf("s%d.%d", nextID, i),
					Attrs: []float64{rng.Float64() * 100},
					Prob:  0.05 + rng.Float64()*(0.9/float64(n)),
				}
			}
			nextID++
			if err := db.InsertXTuple(fmt.Sprintf("S%d", nextID), ts...); err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
		case 1:
			if m > 5 {
				if err := db.DeleteXTuple(rng.Intn(m)); err != nil {
					t.Fatalf("step %d delete: %v", step, err)
				}
			}
		case 2:
			l := rng.Intn(m)
			real := db.Groups()[l].RealTuples()
			if len(real) == 0 {
				continue
			}
			probs := make([]float64, len(real))
			for i := range probs {
				probs[i] = 0.05 + rng.Float64()*(0.9/float64(len(probs)))
			}
			if err := db.Reweight(l, probs); err != nil {
				t.Fatalf("step %d reweight: %v", step, err)
			}
		case 3:
			l := rng.Intn(m)
			g := db.Groups()[l]
			if err := db.Collapse(l, rng.Intn(len(g.Tuples))); err != nil {
				t.Fatalf("step %d collapse: %v", step, err)
			}
		}
		assertSameOrder(t, db, rebuildFrom(t, db))
	}
}
