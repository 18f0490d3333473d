package uncertain

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func buildUDB1(t *testing.T) *Database {
	t.Helper()
	db := New()
	add := func(name string, ts ...Tuple) {
		if err := db.AddXTuple(name, ts...); err != nil {
			t.Fatalf("AddXTuple(%s): %v", name, err)
		}
	}
	add("S1", Tuple{ID: "t0", Attrs: []float64{21}, Prob: 0.6}, Tuple{ID: "t1", Attrs: []float64{32}, Prob: 0.4})
	add("S2", Tuple{ID: "t2", Attrs: []float64{30}, Prob: 0.7}, Tuple{ID: "t3", Attrs: []float64{22}, Prob: 0.3})
	add("S3", Tuple{ID: "t4", Attrs: []float64{25}, Prob: 0.4}, Tuple{ID: "t5", Attrs: []float64{27}, Prob: 0.6})
	add("S4", Tuple{ID: "t6", Attrs: []float64{26}, Prob: 1})
	if err := db.Build(ByFirstAttr); err != nil {
		t.Fatalf("Build: %v", err)
	}
	return db
}

func TestBuildSortsByDescendingScore(t *testing.T) {
	db := buildUDB1(t)
	want := []string{"t1", "t2", "t5", "t6", "t4", "t3", "t0"}
	sorted := db.Sorted()
	if len(sorted) != len(want) {
		t.Fatalf("sorted length = %d, want %d", len(sorted), len(want))
	}
	for i, id := range want {
		if sorted[i].ID != id {
			t.Errorf("rank %d = %s, want %s", i, sorted[i].ID, id)
		}
		if sorted[i].Index() != i {
			t.Errorf("tuple %s Index() = %d, want %d", id, sorted[i].Index(), i)
		}
	}
}

func TestBuildAssignsGroups(t *testing.T) {
	db := buildUDB1(t)
	wantGroup := map[string]int{"t0": 0, "t1": 0, "t2": 1, "t3": 1, "t4": 2, "t5": 2, "t6": 3}
	for id, g := range wantGroup {
		tp := db.TupleByID(id)
		if tp == nil {
			t.Fatalf("tuple %s missing", id)
		}
		if tp.Group != g {
			t.Errorf("tuple %s group = %d, want %d", id, tp.Group, g)
		}
	}
}

func TestUDB1HasNoNulls(t *testing.T) {
	db := buildUDB1(t)
	if db.NumTuples() != db.NumRealTuples() {
		t.Fatalf("udb1 should have no nulls: total=%d real=%d", db.NumTuples(), db.NumRealTuples())
	}
	st := db.ComputeStats()
	if st.NullTuples != 0 || st.Groups != 4 || st.RealTuples != 7 || st.CertainGroups != 1 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestNullMaterialization(t *testing.T) {
	db := New()
	if err := db.AddXTuple("X", Tuple{ID: "a", Attrs: []float64{1}, Prob: 0.3}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddXTuple("Y", Tuple{ID: "b", Attrs: []float64{2}, Prob: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	x, _ := db.Group(0)
	null := x.NullTuple()
	if null == nil {
		t.Fatal("expected a materialized null for mass 0.3")
	}
	if !null.Null || null.Prob < 0.699999 || null.Prob > 0.700001 {
		t.Fatalf("null tuple = %+v, want prob 0.7", null)
	}
	// Null ranks last, after all real tuples.
	sorted := db.Sorted()
	if sorted[len(sorted)-1] != null {
		t.Fatalf("null tuple not ranked last: %v", sorted)
	}
	if db.NumRealTuples() != 2 || db.NumTuples() != 3 {
		t.Fatalf("counts: real=%d total=%d", db.NumRealTuples(), db.NumTuples())
	}
}

func TestNoNullForTinyDeficit(t *testing.T) {
	db := New()
	// Sum = 1 - 1e-13, within rounding noise: no null should appear.
	err := db.AddXTuple("X",
		Tuple{ID: "a", Attrs: []float64{1}, Prob: 0.5},
		Tuple{ID: "b", Attrs: []float64{2}, Prob: 0.5 - 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Build(ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	if db.NumTuples() != 2 {
		t.Fatalf("tiny deficit materialized a null: %d tuples", db.NumTuples())
	}
}

func TestValidationErrors(t *testing.T) {
	t.Run("prob zero", func(t *testing.T) {
		db := New()
		err := db.AddXTuple("X", Tuple{ID: "a", Attrs: []float64{1}, Prob: 0})
		if !errors.Is(err, ErrProbOutOfRange) {
			t.Fatalf("err = %v, want ErrProbOutOfRange", err)
		}
	})
	t.Run("prob negative", func(t *testing.T) {
		db := New()
		err := db.AddXTuple("X", Tuple{ID: "a", Attrs: []float64{1}, Prob: -0.1})
		if !errors.Is(err, ErrProbOutOfRange) {
			t.Fatalf("err = %v, want ErrProbOutOfRange", err)
		}
	})
	t.Run("prob above one", func(t *testing.T) {
		db := New()
		err := db.AddXTuple("X", Tuple{ID: "a", Attrs: []float64{1}, Prob: 1.2})
		if !errors.Is(err, ErrProbOutOfRange) {
			t.Fatalf("err = %v, want ErrProbOutOfRange", err)
		}
	})
	t.Run("mass exceeds one", func(t *testing.T) {
		db := New()
		err := db.AddXTuple("X",
			Tuple{ID: "a", Attrs: []float64{1}, Prob: 0.7},
			Tuple{ID: "b", Attrs: []float64{2}, Prob: 0.7})
		if !errors.Is(err, ErrMassExceedsOne) {
			t.Fatalf("err = %v, want ErrMassExceedsOne", err)
		}
	})
	t.Run("empty x-tuple", func(t *testing.T) {
		db := New()
		err := db.AddXTuple("X")
		if !errors.Is(err, ErrEmptyXTuple) {
			t.Fatalf("err = %v, want ErrEmptyXTuple", err)
		}
	})
	t.Run("duplicate id", func(t *testing.T) {
		db := New()
		_ = db.AddXTuple("X", Tuple{ID: "a", Attrs: []float64{1}, Prob: 0.5})
		_ = db.AddXTuple("Y", Tuple{ID: "a", Attrs: []float64{2}, Prob: 0.5})
		err := db.Build(ByFirstAttr)
		if !errors.Is(err, ErrDuplicateID) {
			t.Fatalf("err = %v, want ErrDuplicateID", err)
		}
	})
	t.Run("empty database", func(t *testing.T) {
		db := New()
		if err := db.Build(ByFirstAttr); !errors.Is(err, ErrNoGroups) {
			t.Fatalf("err = %v, want ErrNoGroups", err)
		}
	})
	t.Run("double build", func(t *testing.T) {
		db := New()
		_ = db.AddXTuple("X", Tuple{ID: "a", Attrs: []float64{1}, Prob: 1})
		if err := db.Build(ByFirstAttr); err != nil {
			t.Fatal(err)
		}
		if err := db.Build(ByFirstAttr); !errors.Is(err, ErrAlreadyBuilt) {
			t.Fatalf("err = %v, want ErrAlreadyBuilt", err)
		}
		if err := db.AddXTuple("Y", Tuple{ID: "b", Attrs: []float64{1}, Prob: 1}); !errors.Is(err, ErrAlreadyBuilt) {
			t.Fatalf("err = %v, want ErrAlreadyBuilt", err)
		}
	})
}

func TestBuildRejectsNaNScores(t *testing.T) {
	db := New()
	_ = db.AddXTuple("X", Tuple{ID: "a", Attrs: []float64{1}, Prob: 1})
	err := db.Build(func(attrs []float64) float64 { return math.NaN() })
	if !errors.Is(err, ErrBadScore) {
		t.Fatalf("err = %v, want ErrBadScore", err)
	}
}

func TestBuildAllowsInfiniteScores(t *testing.T) {
	db := New()
	_ = db.AddXTuple("X", Tuple{ID: "hi", Attrs: []float64{1}, Prob: 1})
	_ = db.AddXTuple("Y", Tuple{ID: "lo", Attrs: []float64{-1}, Prob: 1})
	err := db.Build(func(attrs []float64) float64 {
		return math.Inf(int(attrs[0])) // +Inf for X, -Inf for Y
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.Sorted()[0].ID != "hi" || db.Sorted()[1].ID != "lo" {
		t.Fatalf("infinite scores mis-ordered: %v", db.Sorted())
	}
}

func TestXTupleAccessors(t *testing.T) {
	db := New()
	_ = db.AddAbsentXTuple("gone")
	_ = db.AddXTuple("partial", Tuple{ID: "p", Attrs: []float64{1}, Prob: 0.4})
	_ = db.AddXTuple("full", Tuple{ID: "f", Attrs: []float64{2}, Prob: 1})
	if err := db.Build(ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	gone, _ := db.Group(0)
	partial, _ := db.Group(1)
	full, _ := db.Group(2)

	if len(gone.RealTuples()) != 0 || gone.NullTuple() == nil || !gone.Absent() || gone.RealMass() != 0 {
		t.Fatalf("absent group accessors wrong: %+v", gone)
	}
	if len(partial.RealTuples()) != 1 || partial.NullTuple() == nil || partial.Absent() {
		t.Fatalf("partial group accessors wrong: %+v", partial)
	}
	if got := partial.RealMass(); got != 0.4 {
		t.Fatalf("partial RealMass = %v", got)
	}
	if len(full.RealTuples()) != 1 || full.NullTuple() != nil || !full.Certain() {
		t.Fatalf("full group accessors wrong: %+v", full)
	}
}

func TestTieBreakByInsertionOrder(t *testing.T) {
	db := New()
	_ = db.AddXTuple("X", Tuple{ID: "first", Attrs: []float64{5}, Prob: 0.5},
		Tuple{ID: "second", Attrs: []float64{5}, Prob: 0.5})
	_ = db.AddXTuple("Y", Tuple{ID: "third", Attrs: []float64{5}, Prob: 1})
	if err := db.Build(ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	sorted := db.Sorted()
	want := []string{"first", "second", "third"}
	for i, id := range want {
		if sorted[i].ID != id {
			t.Fatalf("rank %d = %s, want %s (insertion-order tie-break)", i, sorted[i].ID, id)
		}
	}
}

func TestNullsOrderByGroupIndex(t *testing.T) {
	db := New()
	_ = db.AddXTuple("B", Tuple{ID: "b", Attrs: []float64{1}, Prob: 0.5})
	_ = db.AddXTuple("A", Tuple{ID: "a", Attrs: []float64{2}, Prob: 0.5})
	if err := db.Build(ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	sorted := db.Sorted()
	if len(sorted) != 4 {
		t.Fatalf("expected 4 alternatives, got %d", len(sorted))
	}
	if sorted[2].ID != "null:B" || sorted[3].ID != "null:A" {
		t.Fatalf("null order wrong: %v, %v", sorted[2].ID, sorted[3].ID)
	}
}

func TestCloneIsDeep(t *testing.T) {
	db := buildUDB1(t)
	cp := db.Clone()
	if cp.NumTuples() != db.NumTuples() || cp.NumGroups() != db.NumGroups() {
		t.Fatalf("clone shape mismatch")
	}
	// Mutating the clone's tuple must not affect the original.
	//lint:allow frozenwrite deliberate out-of-band write: the test proves Clone does not share tuple storage
	cp.Sorted()[0].Prob = 0.123
	if db.Sorted()[0].Prob == 0.123 {
		t.Fatal("clone shares tuple storage with original")
	}
	if err := cp.Validate(); err == nil {
		// Validation may or may not fail depending on mass; ensure original fine.
	}
	if err := db.Validate(); err != nil {
		t.Fatalf("original became invalid: %v", err)
	}
	// Sorted order of clone references clone's own tuples.
	for i, tp := range cp.Sorted() {
		g := cp.Groups()[tp.Group]
		found := false
		for _, gt := range g.Tuples {
			if gt == tp {
				found = true
			}
		}
		if !found {
			t.Fatalf("clone sorted[%d] not owned by clone group", i)
		}
	}
}

func TestCleanedReplacesGroup(t *testing.T) {
	db := buildUDB1(t)
	// Clean S3 (group index 2) to its alternative t5 (index 1 within group).
	cleaned, err := db.Cleaned(map[int]int{2: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := cleaned.Group(2)
	if g.Name != "S3" || !g.Certain() {
		t.Fatalf("S3 not certain after cleaning: %+v", g)
	}
	if g.Tuples[0].ID != "t5" || g.Tuples[0].Prob != 1 {
		t.Fatalf("cleaned outcome = %+v, want t5 with prob 1", g.Tuples[0])
	}
	if cleaned.NumRealTuples() != 6 {
		t.Fatalf("cleaned db has %d tuples, want 6 (t4 removed)", cleaned.NumRealTuples())
	}
	// Original untouched.
	if db.NumRealTuples() != 7 {
		t.Fatalf("original mutated: %d tuples", db.NumRealTuples())
	}
}

func TestCleanedToNullOutcome(t *testing.T) {
	db := New()
	_ = db.AddXTuple("X", Tuple{ID: "a", Attrs: []float64{3}, Prob: 0.4})
	_ = db.AddXTuple("Y", Tuple{ID: "b", Attrs: []float64{2}, Prob: 1})
	if err := db.Build(ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	// Group X has alternatives [a, null]; clean to the null outcome.
	cleaned, err := db.Cleaned(map[int]int{0: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cleaned.NumGroups() != 2 {
		t.Fatalf("group count changed by cleaning-to-absent: %d", cleaned.NumGroups())
	}
	if cleaned.TupleByID("a") != nil {
		t.Fatal("tuple a survived cleaning-to-absent")
	}
	x, _ := cleaned.Group(0)
	if !x.Absent() || !x.Certain() {
		t.Fatalf("cleaned group should be a certain-absent group: %+v", x)
	}
	if x.Tuples[0].Prob != 1 || !x.Tuples[0].Null {
		t.Fatalf("absent group alternative = %+v, want null with prob 1", x.Tuples[0])
	}
}

func TestAddAbsentXTuple(t *testing.T) {
	db := New()
	if err := db.AddAbsentXTuple("gone"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddXTuple("X", Tuple{ID: "a", Attrs: []float64{1}, Prob: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	g, _ := db.Group(0)
	if !g.Absent() {
		t.Fatalf("group not absent: %+v", g)
	}
	if db.NumRealTuples() != 1 || db.NumTuples() != 2 {
		t.Fatalf("counts: real=%d total=%d", db.NumRealTuples(), db.NumTuples())
	}
	if err := db.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	built := New()
	_ = built.AddXTuple("X", Tuple{ID: "b", Attrs: []float64{1}, Prob: 1})
	if err := built.Build(ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	if err := built.AddAbsentXTuple("late"); !errors.Is(err, ErrAlreadyBuilt) {
		t.Fatalf("err = %v, want ErrAlreadyBuilt", err)
	}
}

func TestCleanedErrors(t *testing.T) {
	db := buildUDB1(t)
	if _, err := db.Cleaned(map[int]int{99: 0}); !errors.Is(err, ErrBadGroupIndex) {
		t.Fatalf("err = %v, want ErrBadGroupIndex", err)
	}
	if _, err := db.Cleaned(map[int]int{-1: 0}); !errors.Is(err, ErrBadGroupIndex) {
		t.Fatalf("negative key: err = %v, want ErrBadGroupIndex", err)
	}
	// Several bad keys, beside a valid one: the smallest is reported, so
	// the error does not depend on map iteration order.
	for i := 0; i < 20; i++ {
		_, err := db.Cleaned(map[int]int{0: 0, 99: 0, -3: 0, 7: 0})
		if want := "index -3 of 4: " + ErrBadGroupIndex.Error(); err == nil || err.Error() != want {
			t.Fatalf("err = %v, want %q", err, want)
		}
	}
	if _, err := db.Cleaned(map[int]int{0: 99}); !errors.Is(err, ErrBadChoice) {
		t.Fatalf("err = %v, want ErrBadChoice", err)
	}
	unbuilt := New()
	_ = unbuilt.AddXTuple("X", Tuple{ID: "a", Attrs: []float64{1}, Prob: 1})
	if _, err := unbuilt.Cleaned(map[int]int{0: 0}); !errors.Is(err, ErrNotBuilt) {
		t.Fatalf("err = %v, want ErrNotBuilt", err)
	}
}

func TestGroupMassInvariantProperty(t *testing.T) {
	// After Build, every x-tuple's alternatives (incl. null) sum to 1
	// within tolerance.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		db := New()
		groups := 1 + rng.Intn(6)
		id := 0
		for g := 0; g < groups; g++ {
			n := 1 + rng.Intn(4)
			target := 1.0
			if rng.Intn(2) == 0 {
				target = 0.1 + 0.8*rng.Float64()
			}
			ts := make([]Tuple, n)
			var sum float64
			ws := make([]float64, n)
			for i := range ws {
				ws[i] = 0.1 + rng.Float64()
				sum += ws[i]
			}
			for i := range ts {
				ts[i] = Tuple{ID: fmt.Sprintf("t%d", id), Attrs: []float64{rng.Float64()}, Prob: ws[i] / sum * target}
				id++
			}
			if err := db.AddXTuple(fmt.Sprintf("X%d", g), ts...); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Build(ByFirstAttr); err != nil {
			t.Fatal(err)
		}
		for _, x := range db.Groups() {
			var mass float64
			for _, tp := range x.Tuples {
				mass += tp.Prob
			}
			if mass < 1-1e-9 || mass > 1+1e-9 {
				t.Fatalf("group %s mass = %v, want 1", x.Name, mass)
			}
		}
		if err := db.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
	}
}

func TestRankFuncs(t *testing.T) {
	if ByFirstAttr([]float64{3, 9}) != 3 {
		t.Fatal("ByFirstAttr wrong")
	}
	if ByFirstAttr(nil) != 0 {
		t.Fatal("ByFirstAttr(nil) should be 0")
	}
	if SumOfAttrs([]float64{1, 2, 3}) != 6 {
		t.Fatal("SumOfAttrs wrong")
	}
	f := WeightedSum(2, 0.5)
	if f([]float64{3, 4}) != 8 {
		t.Fatalf("WeightedSum = %v, want 8", f([]float64{3, 4}))
	}
	if f([]float64{3}) != 6 {
		t.Fatalf("WeightedSum short attrs = %v, want 6", f([]float64{3}))
	}
}

func TestAddXTupleCopiesInput(t *testing.T) {
	db := New()
	attrs := []float64{5}
	ts := []Tuple{{ID: "a", Attrs: attrs, Prob: 1}}
	if err := db.AddXTuple("X", ts...); err != nil {
		t.Fatal(err)
	}
	attrs[0] = 99
	ts[0].Prob = 0.001
	if err := db.Build(ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	tp := db.TupleByID("a")
	if tp.Attrs[0] != 5 || tp.Prob != 1 {
		t.Fatalf("AddXTuple did not copy input: %+v", tp)
	}
}

func TestTupleString(t *testing.T) {
	db := New()
	_ = db.AddXTuple("X", Tuple{ID: "a", Attrs: []float64{1.5}, Prob: 0.25})
	_ = db.Build(ByFirstAttr)
	real := db.TupleByID("a").String()
	null := db.TupleByID("null:X").String()
	if real == "" || null == "" {
		t.Fatal("String() should be non-empty")
	}
	if real == null {
		t.Fatal("real and null tuples should render differently")
	}
}

func TestStatsString(t *testing.T) {
	db := buildUDB1(t)
	if s := db.ComputeStats().String(); s == "" {
		t.Fatal("Stats.String empty")
	}
}
