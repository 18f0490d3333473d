package quality

import (
	"math"
	"math/rand"
	"testing"

	"github.com/probdb/topkclean/internal/numeric"
	"github.com/probdb/topkclean/internal/testdb"
	"github.com/probdb/topkclean/internal/topkq"
	"github.com/probdb/topkclean/internal/uncertain"
)

// Databases containing certain-absent x-tuples (an entity confirmed to
// have no value) arise from cleaning-to-null outcomes. These tests pin the
// whole algorithm stack on that path.

func buildWithAbsent(t *testing.T) *uncertain.Database {
	t.Helper()
	db := uncertain.New()
	if err := db.AddAbsentXTuple("gone"); err != nil {
		t.Fatal(err)
	}
	mustAddQ(t, db, "A",
		uncertain.Tuple{ID: "a1", Attrs: []float64{10}, Prob: 0.5},
		uncertain.Tuple{ID: "a2", Attrs: []float64{5}, Prob: 0.5})
	mustAddQ(t, db, "B",
		uncertain.Tuple{ID: "b1", Attrs: []float64{8}, Prob: 0.7})
	if err := db.Build(uncertain.ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	return db
}

func mustAddQ(t *testing.T, db *uncertain.Database, name string, ts ...uncertain.Tuple) {
	t.Helper()
	if err := db.AddXTuple(name, ts...); err != nil {
		t.Fatal(err)
	}
}

func TestQualityAlgorithmsAgreeWithAbsentGroups(t *testing.T) {
	db := buildWithAbsent(t)
	for k := 1; k <= 3; k++ {
		pw, err := PW(db, k)
		if err != nil {
			t.Fatalf("k=%d PW: %v", k, err)
		}
		pwr, err := PWR(db, k)
		if err != nil {
			t.Fatalf("k=%d PWR: %v", k, err)
		}
		ev, err := TP(db, k)
		if err != nil {
			t.Fatalf("k=%d TP: %v", k, err)
		}
		if math.Abs(pw-pwr) > 1e-9 || math.Abs(pw-ev.S) > 1e-9 {
			t.Fatalf("k=%d: PW=%v PWR=%v TP=%v", k, pw, pwr, ev.S)
		}
	}
}

func TestAbsentGroupContributesNoGain(t *testing.T) {
	db := buildWithAbsent(t)
	ev, err := TP(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Gain(0) != 0 {
		t.Fatalf("absent group gain = %v, want 0 (nothing left to clean)", ev.Gain(0))
	}
	for _, g := range ev.Gains() {
		if g.Group == 0 {
			t.Fatalf("absent group has a gain entry %+v", g)
		}
	}
}

func TestPSRWithAbsentGroupMatchesNaive(t *testing.T) {
	db := buildWithAbsent(t)
	for k := 1; k <= 3; k++ {
		psr, err := topkq.RankProbabilities(db, k)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := topkq.NaiveRankProbabilities(db, k)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < db.NumTuples(); i++ {
			if !numeric.AlmostEqual(psr.P(i), naive.P(i), 1e-9, 1e-9) {
				t.Fatalf("k=%d position %d: psr %v naive %v", k, i, psr.P(i), naive.P(i))
			}
		}
	}
}

// TestCleaningToNullThenRequeryEndToEnd: clean a deficit x-tuple to its
// null outcome and verify the resulting database stays fully consistent.
func TestCleaningToNullThenRequeryEndToEnd(t *testing.T) {
	db := uncertain.New()
	mustAddQ(t, db, "X", uncertain.Tuple{ID: "x", Attrs: []float64{10}, Prob: 0.3})
	mustAddQ(t, db, "Y", uncertain.Tuple{ID: "y", Attrs: []float64{8}, Prob: 0.6})
	mustAddQ(t, db, "Z", uncertain.Tuple{ID: "z", Attrs: []float64{6}, Prob: 1})
	if err := db.Build(uncertain.ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	before, err := TP(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	// X has alternatives [x, null]; resolve to null (entity absent).
	cleaned, err := db.Cleaned(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	after, err := TP(cleaned, 2)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := PW(cleaned, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(after.S-pw) > 1e-9 {
		t.Fatalf("TP %v vs PW %v on cleaned db", after.S, pw)
	}
	// The expected-quality identity: e-weighted average of post-cleaning
	// qualities over X's outcomes equals S(D) - g(X, D).
	resolved, err := db.Cleaned(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	evResolved, err := TP(resolved, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := before.S - before.Gain(0)
	got := 0.3*evResolved.S + 0.7*after.S
	if !numeric.AlmostEqual(got, want, 1e-9, 1e-9) {
		t.Fatalf("expected post-cleaning quality %v, Theorem 2 says %v", got, want)
	}
}

// TestUTopKWithAbsentGroups: the mode computation must tolerate forced
// null alternatives.
func TestUTopKWithAbsentGroups(t *testing.T) {
	db := buildWithAbsent(t)
	best, err := UTopK(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := PWRDist(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(best.Prob, dist[0].Prob, 1e-12, 1e-12) {
		t.Fatalf("UTopK %v vs mode %v", best.Prob, dist[0].Prob)
	}
}

// TestMidSizePWRvsTPAtModerateK strengthens the cross-check beyond tiny
// k: 30 x-tuples, k = 5 and 6 (PWR still feasible, worlds are not).
func TestMidSizePWRvsTPAtModerateK(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	db := testdb.Random(rng, testdb.RandomConfig{MaxGroups: 30, MaxPerGroup: 3, AllowNulls: true})
	for _, k := range []int{5, 6} {
		if k > db.NumGroups() {
			t.Skip("random db too small")
		}
		pwr, err := PWR(db, k)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := TP(db, k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pwr-ev.S) > 1e-8 {
			t.Fatalf("k=%d: PWR %v vs TP %v", k, pwr, ev.S)
		}
	}
}
