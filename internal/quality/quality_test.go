package quality

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/probdb/topkclean/internal/numeric"
	"github.com/probdb/topkclean/internal/testdb"
	"github.com/probdb/topkclean/internal/topkq"
	"github.com/probdb/topkclean/internal/uncertain"
)

// TestPaperAnchorUDB1 pins the running example of Section I: the PWS-quality
// of a PT-2 query on udb1 is -2.55 (Figure 2) with 7 pw-results.
func TestPaperAnchorUDB1(t *testing.T) {
	db := testdb.UDB1()
	const want = -2.551325921692723 // -2.55 in the paper's rounding
	for name, f := range map[string]func(*uncertain.Database, int) (float64, error){
		"PW":  PW,
		"PWR": PWR,
		"TP": func(db *uncertain.Database, k int) (float64, error) {
			ev, err := TP(db, k)
			if err != nil {
				return 0, err
			}
			return ev.S, nil
		},
	} {
		got, err := f(db, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !numeric.AlmostEqual(got, want, 1e-9, 1e-9) {
			t.Errorf("%s(udb1, k=2) = %.12f, want %.12f", name, got, want)
		}
		if math.Abs(got-(-2.55)) > 0.005 {
			t.Errorf("%s(udb1) = %.4f does not round to the paper's -2.55", name, got)
		}
	}
	n, err := PWRCount(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("udb1 has %d pw-results, want 7 (Figure 2)", n)
	}
}

// TestPaperAnchorUDB2 pins the cleaned database: quality -1.85 (Figure 3)
// with 4 pw-results.
func TestPaperAnchorUDB2(t *testing.T) {
	db := testdb.UDB2()
	const want = -1.8522414936853613
	pw, err := PW(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	pwr, err := PWR(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := TP(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]float64{"PW": pw, "PWR": pwr, "TP": ev.S} {
		if !numeric.AlmostEqual(got, want, 1e-9, 1e-9) {
			t.Errorf("%s(udb2) = %.12f, want %.12f", name, got, want)
		}
		if math.Abs(got-(-1.85)) > 0.005 {
			t.Errorf("%s(udb2) = %.4f does not round to the paper's -1.85", name, got)
		}
	}
	n, _ := PWRCount(db, 2)
	if n != 4 {
		t.Fatalf("udb2 has %d pw-results, want 4 (Figure 3)", n)
	}
	// Cleaning improved quality: udb2 > udb1.
	udb1, _ := PW(testdb.UDB1(), 2)
	if want <= udb1 {
		t.Fatalf("udb2 quality (%v) should exceed udb1 quality (%v)", want, udb1)
	}
}

// TestPaperPWResultExample pins the example of Section III-B: pw-result
// r = (t1, t2) has probability 0.112 + 0.168 = 0.28.
func TestPaperPWResultExample(t *testing.T) {
	db := testdb.UDB1()
	dist, err := PWRDist(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range dist {
		if len(r.TupleIDs) == 2 && r.TupleIDs[0] == "t1" && r.TupleIDs[1] == "t2" {
			if !numeric.AlmostEqual(r.Prob, 0.28, 1e-12, 1e-12) {
				t.Fatalf("Pr((t1,t2)) = %v, want 0.28", r.Prob)
			}
			return
		}
	}
	t.Fatal("pw-result (t1,t2) not found")
}

func TestDistributionsAgreePWvsPWR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		db := testdb.Random(rng, testdb.RandomConfig{MaxGroups: 5, MaxPerGroup: 3, AllowNulls: true})
		k := 1 + rng.Intn(db.NumGroups())
		dPW, err := PWDist(db, k)
		if err != nil {
			t.Fatal(err)
		}
		dPWR, err := PWRDist(db, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(dPW) != len(dPWR) {
			t.Fatalf("trial %d k=%d: |R| differs: PW=%d PWR=%d", trial, k, len(dPW), len(dPWR))
		}
		mp := map[string]float64{}
		for _, r := range dPW {
			key, _ := sigIDs(r.TupleIDs)
			mp[key] = r.Prob
		}
		for _, r := range dPWR {
			key, _ := sigIDs(r.TupleIDs)
			want, ok := mp[key]
			if !ok {
				t.Fatalf("trial %d: PWR result %v missing from PW", trial, r.TupleIDs)
			}
			if !numeric.AlmostEqual(r.Prob, want, 1e-9, 1e-9) {
				t.Fatalf("trial %d: Pr(%v): PWR=%v PW=%v", trial, r.TupleIDs, r.Prob, want)
			}
		}
		if !numeric.AlmostEqual(dPWR.TotalProb(), 1, 1e-9, 1e-9) {
			t.Fatalf("trial %d: PWR distribution sums to %v", trial, dPWR.TotalProb())
		}
	}
}

func sigIDs(ids []string) (string, []string) {
	key := ""
	for _, id := range ids {
		key += id + "|"
	}
	return key, ids
}

// TestThreeAlgorithmsAgree is the paper's own verification methodology
// ("we have verified the correctness of PWR and TP by comparing with PW...
// the absolute difference is always smaller than 1e-8").
func TestThreeAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 150; trial++ {
		db := testdb.Random(rng, testdb.RandomConfig{MaxGroups: 6, MaxPerGroup: 3, AllowNulls: true})
		k := 1 + rng.Intn(db.NumGroups())
		pw, err := PW(db, k)
		if err != nil {
			t.Fatal(err)
		}
		pwr, err := PWR(db, k)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := TP(db, k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pw-pwr) > 1e-8 {
			t.Fatalf("trial %d k=%d: |PW-PWR| = %g", trial, k, math.Abs(pw-pwr))
		}
		if math.Abs(pw-ev.S) > 1e-8 {
			t.Fatalf("trial %d k=%d: |PW-TP| = %g (PW=%v TP=%v)", trial, k, math.Abs(pw-ev.S), pw, ev.S)
		}
	}
}

func TestThreeAlgorithmsAgreeWithTies(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 80; trial++ {
		db := testdb.Random(rng, testdb.RandomConfig{MaxGroups: 5, MaxPerGroup: 3, AllowNulls: true, ScoreTies: true})
		k := 1 + rng.Intn(db.NumGroups())
		pw, _ := PW(db, k)
		pwr, _ := PWR(db, k)
		ev, err := TP(db, k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pw-pwr) > 1e-8 || math.Abs(pw-ev.S) > 1e-8 {
			t.Fatalf("trial %d k=%d: PW=%v PWR=%v TP=%v", trial, k, pw, pwr, ev.S)
		}
	}
}

func TestQualityIsNonPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 100; trial++ {
		db := testdb.Random(rng, testdb.RandomConfig{MaxGroups: 6, MaxPerGroup: 4, AllowNulls: true})
		k := 1 + rng.Intn(db.NumGroups())
		ev, err := TP(db, k)
		if err != nil {
			t.Fatal(err)
		}
		if ev.S > 0 {
			t.Fatalf("trial %d: S = %v > 0", trial, ev.S)
		}
	}
}

func TestCertainDatabaseHasZeroQuality(t *testing.T) {
	// A database of certain x-tuples has a single pw-result: S must be 0.
	db := uncertain.New()
	for i, score := range []float64{30, 20, 10} {
		name := string(rune('A' + i))
		if err := db.AddXTuple(name, uncertain.Tuple{ID: name + "1", Attrs: []float64{score}, Prob: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Build(uncertain.ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 3; k++ {
		pw, _ := PW(db, k)
		pwr, _ := PWR(db, k)
		ev, err := TP(db, k)
		if err != nil {
			t.Fatal(err)
		}
		if pw != 0 || pwr != 0 || ev.S != 0 {
			t.Fatalf("k=%d: certain database quality PW=%v PWR=%v TP=%v, want 0", k, pw, pwr, ev.S)
		}
		n, _ := PWRCount(db, k)
		if n != 1 {
			t.Fatalf("k=%d: %d pw-results, want 1", k, n)
		}
	}
}

func TestQualityLowerBound(t *testing.T) {
	// S >= -log2(|R|): entropy of |R| outcomes is maximized by uniformity.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 60; trial++ {
		db := testdb.Random(rng, testdb.RandomConfig{MaxGroups: 5, MaxPerGroup: 3, AllowNulls: true})
		k := 1 + rng.Intn(db.NumGroups())
		s, err := PWR(db, k)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := PWRCount(db, k)
		if lb := -math.Log2(float64(n)); s < lb-1e-9 {
			t.Fatalf("trial %d: S = %v below bound -log2(%d) = %v", trial, s, n, lb)
		}
	}
}

func TestTPGroupGainsSumToQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		db := testdb.Random(rng, testdb.RandomConfig{MaxGroups: 6, MaxPerGroup: 3, AllowNulls: true})
		k := 1 + rng.Intn(db.NumGroups())
		ev, err := TP(db, k)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for i, g := range ev.Gains() {
			if g.Value > 1e-12 {
				t.Fatalf("trial %d: g(%d,D) = %v > 0", trial, g.Group, g.Value)
			}
			if g.Value == 0 || g.Group < 0 || g.Group >= db.NumGroups() ||
				(i > 0 && g.Group <= ev.Gains()[i-1].Group) {
				t.Fatalf("trial %d: gain entry %d = %+v: want non-zero, in range, ascending", trial, i, g)
			}
			sum += g.Value
		}
		if !numeric.AlmostEqual(sum, ev.S, 1e-9, 1e-9) {
			t.Fatalf("trial %d: sum g(l,D) = %v, S = %v", trial, sum, ev.S)
		}
	}
}

func TestTPFromInfoSharesComputation(t *testing.T) {
	db := testdb.UDB1()
	info, err := topkq.RankProbabilities(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The same info answers the query...
	ans := topkq.PTK(db, info, 0.4)
	if topkq.FormatScored(ans) != "{t1, t2, t5}" {
		t.Fatalf("query answer from shared info wrong: %s", topkq.FormatScored(ans))
	}
	// ...and computes the quality.
	ev, err := TPFromInfo(db, info)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(ev.S, -2.551325921692723, 1e-9, 1e-9) {
		t.Fatalf("TPFromInfo = %v, want -2.5513...", ev.S)
	}
	if ev.Info != info {
		t.Fatal("TPFromInfo should retain the shared info")
	}
}

func TestTPFromInfoValidation(t *testing.T) {
	db := testdb.UDB1()
	other := testdb.UDB2()
	info, _ := topkq.TopKProbabilities(other, 2)
	if _, err := TPFromInfo(db, info); err == nil {
		t.Fatal("mismatched info should be rejected")
	}
	if _, err := TPFromInfo(db, nil); err == nil {
		t.Fatal("nil info should be rejected")
	}
	unbuilt := uncertain.New()
	_ = unbuilt.AddXTuple("X", uncertain.Tuple{ID: "a", Attrs: []float64{1}, Prob: 1})
	if _, err := TPFromInfo(unbuilt, info); !errors.Is(err, uncertain.ErrNotBuilt) {
		t.Fatalf("err = %v, want ErrNotBuilt", err)
	}
}

func TestArgumentValidation(t *testing.T) {
	db := testdb.UDB1()
	for name, f := range map[string]func(*uncertain.Database, int) (float64, error){
		"PW": PW, "PWR": PWR,
	} {
		if _, err := f(db, 0); !errors.Is(err, topkq.ErrBadK) {
			t.Errorf("%s k=0: err = %v, want ErrBadK", name, err)
		}
		if _, err := f(db, 5); !errors.Is(err, topkq.ErrKTooLarge) {
			t.Errorf("%s k=5: err = %v, want ErrKTooLarge", name, err)
		}
	}
	if _, err := TP(db, 0); !errors.Is(err, topkq.ErrBadK) {
		t.Errorf("TP k=0: err = %v, want ErrBadK", err)
	}
	unbuilt := uncertain.New()
	_ = unbuilt.AddXTuple("X", uncertain.Tuple{ID: "a", Attrs: []float64{1}, Prob: 1})
	if _, err := PW(unbuilt, 1); !errors.Is(err, uncertain.ErrNotBuilt) {
		t.Errorf("PW unbuilt: err = %v, want ErrNotBuilt", err)
	}
}

func TestPWRejectsHugeDatabases(t *testing.T) {
	db := uncertain.New()
	for g := 0; g < 40; g++ {
		name := string(rune('a'+g%26)) + string(rune('0'+g/26))
		err := db.AddXTuple(name,
			uncertain.Tuple{ID: name + "x", Attrs: []float64{float64(g)}, Prob: 0.5},
			uncertain.Tuple{ID: name + "y", Attrs: []float64{float64(g) + 0.25}, Prob: 0.5})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Build(uncertain.ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	if _, err := PW(db, 2); err == nil {
		t.Fatal("PW must refuse 2^40 worlds")
	}
	// PWR handles it fine.
	if _, err := PWR(db, 2); err != nil {
		t.Fatalf("PWR should handle 40 x-tuples: %v", err)
	}
}

func TestQualityDecreasesWithK(t *testing.T) {
	// Figure 4(a)'s trend on the paper's example: more ranks, more ambiguity.
	db := testdb.UDB1()
	prev := 0.1
	for k := 1; k <= 3; k++ {
		ev, err := TP(db, k)
		if err != nil {
			t.Fatal(err)
		}
		if ev.S >= prev {
			t.Fatalf("quality did not decrease: S(k=%d) = %v >= %v", k, ev.S, prev)
		}
		prev = ev.S
	}
}

func TestDistributionStringers(t *testing.T) {
	db := testdb.UDB1()
	d, _ := PWRDist(db, 2)
	if d[0].String() == "" {
		t.Fatal("PWResult.String empty")
	}
	if !numeric.AlmostEqual(d.Quality(), -2.551325921692723, 1e-9, 1e-9) {
		t.Fatalf("Distribution.Quality = %v", d.Quality())
	}
}

// TestTPOmegaNonPositive checks the per-tuple weights are <= 0, which is
// what makes g(l,D) <= 0 and the expected cleaning improvement >= 0.
func TestTPOmegaNonPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 100; trial++ {
		db := testdb.Random(rng, testdb.RandomConfig{MaxGroups: 6, MaxPerGroup: 4, AllowNulls: true})
		k := 1 + rng.Intn(db.NumGroups())
		ev, err := TP(db, k)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range ev.Omega {
			if w > 1e-12 {
				t.Fatalf("trial %d: omega[%d] = %v > 0 (tuple %s)", trial, i, w, db.Sorted()[i].ID)
			}
		}
	}
}
