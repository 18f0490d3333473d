package quality

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/probdb/topkclean/internal/numeric"
	"github.com/probdb/topkclean/internal/testdb"
	"github.com/probdb/topkclean/internal/uncertain"
)

type quickDB struct {
	DB *uncertain.Database
}

func (quickDB) Generate(rng *rand.Rand, _ int) reflect.Value {
	db := testdb.Random(rng, testdb.RandomConfig{MaxGroups: 5, MaxPerGroup: 3, AllowNulls: true})
	return reflect.ValueOf(quickDB{DB: db})
}

// TestQuickDistributionIsProbabilityDistribution: pw-result probabilities
// are positive and sum to 1 (Definition 1).
func TestQuickDistributionIsProbabilityDistribution(t *testing.T) {
	f := func(q quickDB, kRaw uint8) bool {
		db := q.DB
		k := 1 + int(kRaw)%db.NumGroups()
		dist, err := PWRDist(db, k)
		if err != nil {
			return false
		}
		for _, r := range dist {
			if r.Prob <= 0 || r.Prob > 1+1e-12 {
				return false
			}
			if len(r.TupleIDs) != k {
				return false
			}
		}
		return numeric.AlmostEqual(dist.TotalProb(), 1, 1e-9, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickThreeAlgorithmsAgree is the paper's verification methodology as
// a quick property: |PW - PWR|, |PW - TP| < 1e-8.
func TestQuickThreeAlgorithmsAgree(t *testing.T) {
	f := func(q quickDB, kRaw uint8) bool {
		db := q.DB
		k := 1 + int(kRaw)%db.NumGroups()
		pw, err := PW(db, k)
		if err != nil {
			return false
		}
		pwr, err := PWR(db, k)
		if err != nil {
			return false
		}
		ev, err := TP(db, k)
		if err != nil {
			return false
		}
		return math.Abs(pw-pwr) < 1e-8 && math.Abs(pw-ev.S) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickQualityBounds: -log2|R| <= S <= 0.
func TestQuickQualityBounds(t *testing.T) {
	f := func(q quickDB, kRaw uint8) bool {
		db := q.DB
		k := 1 + int(kRaw)%db.NumGroups()
		s, err := PWR(db, k)
		if err != nil {
			return false
		}
		n, err := PWRCount(db, k)
		if err != nil {
			return false
		}
		return s <= 1e-12 && s >= -math.Log2(float64(n))-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCleaningNeverHurtsExpectedQuality: for any x-tuple, the
// e_i-weighted expected quality over its cleaned outcomes is at least the
// original quality (cleaning removes entropy in expectation; this is
// Theorem 2 with M=1, P=1 being nonnegative).
func TestQuickCleaningNeverHurtsExpectedQuality(t *testing.T) {
	f := func(q quickDB, gRaw, kRaw uint8) bool {
		db := q.DB
		k := 1 + int(kRaw)%db.NumGroups()
		g := int(gRaw) % db.NumGroups()
		ev, err := TP(db, k)
		if err != nil {
			return false
		}
		group := db.Groups()[g]
		var expected numeric.Kahan
		for ci, alt := range group.Tuples {
			cleaned, err := db.Cleaned(map[int]int{g: ci})
			if err != nil {
				return false
			}
			ev2, err := TP(cleaned, k)
			if err != nil {
				return false
			}
			expected.Add(alt.Prob * ev2.S)
		}
		return expected.Sum() >= ev.S-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickGroupGainMatchesCleaningDelta: Theorem 2 with X={l}, M=1, P=1
// says the expected quality after surely cleaning x-tuple l equals
// S(D) - g(l,D).
func TestQuickGroupGainMatchesCleaningDelta(t *testing.T) {
	f := func(q quickDB, gRaw, kRaw uint8) bool {
		db := q.DB
		k := 1 + int(kRaw)%db.NumGroups()
		g := int(gRaw) % db.NumGroups()
		ev, err := TP(db, k)
		if err != nil {
			return false
		}
		group := db.Groups()[g]
		var expected numeric.Kahan
		for ci, alt := range group.Tuples {
			cleaned, err := db.Cleaned(map[int]int{g: ci})
			if err != nil {
				return false
			}
			ev2, err := TP(cleaned, k)
			if err != nil {
				return false
			}
			expected.Add(alt.Prob * ev2.S)
		}
		return numeric.AlmostEqual(expected.Sum(), ev.S-ev.Gain(g), 1e-8, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestPWRLimited(t *testing.T) {
	db := testdb.UDB1()
	// udb1 has 7 pw-results at k=2: a cap of 7 succeeds, 6 fails.
	s, err := PWRLimited(db, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(s, -2.551325921692723, 1e-9, 1e-9) {
		t.Fatalf("PWRLimited = %v", s)
	}
	if _, err := PWRLimited(db, 2, 6); !errors.Is(err, ErrResultLimit) {
		t.Fatalf("err = %v, want ErrResultLimit", err)
	}
}
