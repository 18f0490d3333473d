package quality

import (
	"math/rand"
	"testing"

	"github.com/probdb/topkclean/internal/numeric"
	"github.com/probdb/topkclean/internal/testdb"
)

func TestUTopKOnUDB1(t *testing.T) {
	// Figure 2: the most probable pw-result of the top-2 query on udb1 is
	// (t1, t2) with probability 0.28.
	db := testdb.UDB1()
	best, err := UTopK(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(best.TupleIDs) != 2 || best.TupleIDs[0] != "t1" || best.TupleIDs[1] != "t2" {
		t.Fatalf("U-Top2 = %v, want (t1,t2)", best.TupleIDs)
	}
	if !numeric.AlmostEqual(best.Prob, 0.28, 1e-12, 1e-12) {
		t.Fatalf("U-Top2 probability = %v, want 0.28", best.Prob)
	}
}

func TestUTopKOnUDB2(t *testing.T) {
	// Figure 3: on udb2 the mode is (t2, t5) at 0.42.
	db := testdb.UDB2()
	best, err := UTopK(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if best.TupleIDs[0] != "t2" || best.TupleIDs[1] != "t5" {
		t.Fatalf("U-Top2 = %v, want (t2,t5)", best.TupleIDs)
	}
	if !numeric.AlmostEqual(best.Prob, 0.42, 1e-12, 1e-12) {
		t.Fatalf("probability = %v, want 0.42", best.Prob)
	}
}

func TestUTopKMatchesDistributionMode(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 80; trial++ {
		db := testdb.Random(rng, testdb.RandomConfig{MaxGroups: 5, MaxPerGroup: 3, AllowNulls: true})
		k := 1 + rng.Intn(db.NumGroups())
		best, err := UTopK(db, k)
		if err != nil {
			t.Fatal(err)
		}
		dist, err := PWRDist(db, k)
		if err != nil {
			t.Fatal(err)
		}
		// dist is sorted by probability descending; the mode's probability
		// must match (the exact vector may differ only under ties).
		if !numeric.AlmostEqual(best.Prob, dist[0].Prob, 1e-12, 1e-12) {
			t.Fatalf("trial %d: UTopK prob %v, mode prob %v", trial, best.Prob, dist[0].Prob)
		}
	}
}

func TestUTopKArgValidation(t *testing.T) {
	db := testdb.UDB1()
	if _, err := UTopK(db, 0); err == nil {
		t.Fatal("k=0 must be rejected")
	}
	if _, err := UTopK(db, 99); err == nil {
		t.Fatal("k>m must be rejected")
	}
}

func TestUTopKCertainDatabase(t *testing.T) {
	db := testdb.UDB2()
	// Clean the remaining uncertain x-tuples: S1 -> t1, S2 -> t2.
	db, err := db.Cleaned(map[int]int{0: 1})
	if err != nil {
		t.Fatal(err)
	}
	db, err = db.Cleaned(map[int]int{1: 0})
	if err != nil {
		t.Fatal(err)
	}
	best, err := UTopK(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if best.Prob != 1 {
		t.Fatalf("certain database mode probability = %v, want 1", best.Prob)
	}
}
