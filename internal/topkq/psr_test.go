package topkq

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/probdb/topkclean/internal/numeric"
	"github.com/probdb/topkclean/internal/testdb"
	"github.com/probdb/topkclean/internal/uncertain"
)

func TestPSRMatchesNaiveOnUDB1(t *testing.T) {
	db := testdb.UDB1()
	for k := 1; k <= 4; k++ {
		psr, err := RankProbabilities(db, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		naive, err := NaiveRankProbabilities(db, k)
		if err != nil {
			t.Fatalf("k=%d naive: %v", k, err)
		}
		compareInfos(t, db, psr, naive, k)
	}
}

func compareInfos(t *testing.T, db *uncertain.Database, got, want *RankInfo, k int) {
	t.Helper()
	for i := 0; i < db.NumTuples(); i++ {
		if !numeric.AlmostEqual(got.P(i), want.P(i), 1e-9, 1e-9) {
			t.Errorf("k=%d tuple %s: p = %v, want %v", k, db.Sorted()[i].ID, got.P(i), want.P(i))
		}
		for h := 1; h <= k; h++ {
			if !numeric.AlmostEqual(got.Rho(i, h), want.Rho(i, h), 1e-9, 1e-9) {
				t.Errorf("k=%d tuple %s: rho(%d) = %v, want %v",
					k, db.Sorted()[i].ID, h, got.Rho(i, h), want.Rho(i, h))
			}
		}
	}
}

func TestPSRKnownTopKProbabilities(t *testing.T) {
	// Hand-computed top-2 probabilities on udb1.
	// Sorted order: t1(.4) t2(.7) t5(.6) t6(1) t4(.4) t3(.3) t0(.6).
	// p(t1) = 0.4 (t1 always top-2 when present: only 1 tuple can outrank it).
	// p(t2): t2 present & at most one of {t1} above -> 0.7.
	// p(t5): present(.6) * Pr[at most 1 of {t1:.4, t2:.7} above]
	//      = .6 * (1 - .4*.7) = .6*.72 = .432.
	// p(t6): Pr[at most 1 of {t1:.4,t2:.7,t5:.6} above]
	//      = (.6*.3*.4) + (.4*.3*.4 + .6*.7*.4 + .6*.3*.6) = .072+.324 = .396.
	db := testdb.UDB1()
	info, err := RankProbabilities(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"t1": 0.4,
		"t2": 0.7,
		"t5": 0.432,
		"t6": 0.396,
	}
	for id, w := range want {
		tp := db.TupleByID(id)
		if got := info.TupleP(tp); !numeric.AlmostEqual(got, w, 1e-12, 1e-12) {
			t.Errorf("p(%s) = %v, want %v", id, got, w)
		}
	}
}

func TestPSRSumTopKEqualsK(t *testing.T) {
	db := testdb.UDB1()
	for k := 1; k <= 4; k++ {
		info, err := TopKProbabilities(db, k)
		if err != nil {
			t.Fatal(err)
		}
		if got := info.SumTopK(); !numeric.AlmostEqual(got, float64(k), 1e-9, 1e-9) {
			t.Errorf("sum p_i = %v, want %d", got, k)
		}
	}
}

func TestPSRMatchesNaiveOnRandomDatabases(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 150; trial++ {
		db := testdb.Random(rng, testdb.RandomConfig{MaxGroups: 5, MaxPerGroup: 3, AllowNulls: true})
		maxK := db.NumGroups()
		k := 1 + rng.Intn(maxK)
		psr, err := RankProbabilities(db, k)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		naive, err := NaiveRankProbabilities(db, k)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		compareInfos(t, db, psr, naive, k)
		if t.Failed() {
			t.Fatalf("trial %d failed (db: %s)", trial, db.ComputeStats())
		}
	}
}

func TestPSRMatchesNaiveWithScoreTies(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 100; trial++ {
		db := testdb.Random(rng, testdb.RandomConfig{MaxGroups: 4, MaxPerGroup: 3, AllowNulls: true, ScoreTies: true})
		k := 1 + rng.Intn(db.NumGroups())
		psr, err := RankProbabilities(db, k)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		naive, err := NaiveRankProbabilities(db, k)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		compareInfos(t, db, psr, naive, k)
		if t.Failed() {
			t.Fatalf("trial %d failed", trial)
		}
	}
}

func TestPSREarlyTermination(t *testing.T) {
	// Two certain tuples at the top: with k=2, every tuple after them has
	// p=0 and the scan must stop early.
	db := uncertain.New()
	mustAdd(t, db, "A", uncertain.Tuple{ID: "a", Attrs: []float64{100}, Prob: 1})
	mustAdd(t, db, "B", uncertain.Tuple{ID: "b", Attrs: []float64{90}, Prob: 1})
	mustAdd(t, db, "C", uncertain.Tuple{ID: "c1", Attrs: []float64{80}, Prob: 0.5},
		uncertain.Tuple{ID: "c2", Attrs: []float64{70}, Prob: 0.5})
	mustAdd(t, db, "D", uncertain.Tuple{ID: "d", Attrs: []float64{60}, Prob: 1})
	if err := db.Build(uncertain.ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	info, err := RankProbabilities(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if info.Processed != 2 {
		t.Fatalf("Processed = %d, want 2 (early stop after a, b)", info.Processed)
	}
	if info.P(0) != 1 || info.P(1) != 1 {
		t.Fatalf("certain tuples should have p=1: %v, %v", info.P(0), info.P(1))
	}
	for i := 2; i < db.NumTuples(); i++ {
		if info.P(i) != 0 {
			t.Fatalf("tuple at position %d has p=%v, want 0", i, info.P(i))
		}
	}
	// The early-stopped info must still agree with the naive ground truth.
	naive, err := NaiveRankProbabilities(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	compareInfos(t, db, info, naive, 2)
}

func TestPSRRebuildPathAgreesWithNaive(t *testing.T) {
	// Groups whose leading alternatives carry almost all the mass force
	// q > deconvLimit and exercise the exclusion path: at k = 3 the three
	// active groups fill one block of the exclusion tree, at k < 3 they
	// span several.
	db := uncertain.New()
	mustAdd(t, db, "A",
		uncertain.Tuple{ID: "a1", Attrs: []float64{100}, Prob: 0.97},
		uncertain.Tuple{ID: "a2", Attrs: []float64{10}, Prob: 0.03})
	mustAdd(t, db, "B",
		uncertain.Tuple{ID: "b1", Attrs: []float64{90}, Prob: 0.98},
		uncertain.Tuple{ID: "b2", Attrs: []float64{9}, Prob: 0.02})
	mustAdd(t, db, "C",
		uncertain.Tuple{ID: "c1", Attrs: []float64{80}, Prob: 0.99},
		uncertain.Tuple{ID: "c2", Attrs: []float64{8}, Prob: 0.01})
	if err := db.Build(uncertain.ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 3; k++ {
		info, err := RankProbabilities(db, k)
		if err != nil {
			t.Fatal(err)
		}
		if info.Rebuilds == 0 {
			t.Fatalf("k=%d: expected the exclusion path to trigger (q > deconvLimit)", k)
		}
		naive, err := NaiveRankProbabilities(db, k)
		if err != nil {
			t.Fatal(err)
		}
		compareInfos(t, db, info, naive, k)
	}
}

func TestPSRArgumentValidation(t *testing.T) {
	db := testdb.UDB1()
	if _, err := RankProbabilities(db, 0); !errors.Is(err, ErrBadK) {
		t.Fatalf("k=0: err = %v, want ErrBadK", err)
	}
	if _, err := RankProbabilities(db, 5); !errors.Is(err, ErrKTooLarge) {
		t.Fatalf("k=5 > m=4: err = %v, want ErrKTooLarge", err)
	}
	unbuilt := uncertain.New()
	_ = unbuilt.AddXTuple("X", uncertain.Tuple{ID: "a", Attrs: []float64{1}, Prob: 1})
	if _, err := RankProbabilities(unbuilt, 1); !errors.Is(err, uncertain.ErrNotBuilt) {
		t.Fatalf("unbuilt: err = %v, want ErrNotBuilt", err)
	}
	if _, err := NaiveRankProbabilities(db, 0); !errors.Is(err, ErrBadK) {
		t.Fatalf("naive k=0: err = %v, want ErrBadK", err)
	}
	if _, err := NaiveRankProbabilities(db, 9); !errors.Is(err, ErrKTooLarge) {
		t.Fatalf("naive k=9: err = %v, want ErrKTooLarge", err)
	}
	if _, err := NaiveRankProbabilities(unbuilt, 1); !errors.Is(err, uncertain.ErrNotBuilt) {
		t.Fatalf("naive unbuilt: err = %v, want ErrNotBuilt", err)
	}
}

func TestTopKProbabilitiesOmitsRho(t *testing.T) {
	db := testdb.UDB1()
	info, err := TopKProbabilities(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if info.HasRho() {
		t.Fatal("TopKProbabilities should not retain rho")
	}
	if info.Rho(0, 1) != 0 {
		t.Fatal("Rho on rho-less info should return 0")
	}
	full, _ := RankProbabilities(db, 2)
	for i := 0; i < db.NumTuples(); i++ {
		if info.P(i) != full.P(i) {
			t.Fatalf("p mismatch at %d: %v vs %v", i, info.P(i), full.P(i))
		}
	}
}

func TestRankInfoAccessorBounds(t *testing.T) {
	db := testdb.UDB1()
	info, _ := RankProbabilities(db, 2)
	if info.P(-1) != 0 || info.P(10000) != 0 {
		t.Fatal("out-of-range P should be 0")
	}
	if info.Rho(0, 0) != 0 || info.Rho(0, 3) != 0 {
		t.Fatal("out-of-range Rho should be 0")
	}
}

func TestNonzeroCount(t *testing.T) {
	db := testdb.UDB1()
	info, _ := TopKProbabilities(db, 2)
	// t1, t2, t5, t6 have nonzero p at k=2; t4 also can rank second
	// (world t0,t3,t4,t6 ranks t6 first, t4 second). t3, t0 cannot.
	got := info.NonzeroCount()
	naive, _ := NaiveRankProbabilities(db, 2)
	want := naive.NonzeroCount()
	if got != want {
		t.Fatalf("NonzeroCount = %d, want %d", got, want)
	}
}

func mustAdd(t *testing.T, db *uncertain.Database, name string, ts ...uncertain.Tuple) {
	t.Helper()
	if err := db.AddXTuple(name, ts...); err != nil {
		t.Fatalf("AddXTuple(%s): %v", name, err)
	}
}
