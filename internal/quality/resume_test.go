package quality

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/probdb/topkclean/internal/topkq"
	"github.com/probdb/topkclean/internal/uncertain"
)

// TestTPFromResumedInfoMatchesFresh: the engine re-derives the TP quality
// evaluation from a resumed rank info after every mutation; since Resume
// is bit-identical to a fresh pass, the evaluation — score, per-tuple
// weights, per-x-tuple gains — must be bit-identical too. This pins the
// quality layer's half of the incremental revalidation contract.
func TestTPFromResumedInfoMatchesFresh(t *testing.T) {
	const k = 5
	rng := rand.New(rand.NewSource(11))
	db := uncertain.New()
	for g := 0; g < 50; g++ {
		n := 1 + rng.Intn(3)
		target := 1.0
		if g%2 == 0 {
			target = 0.4 + 0.5*rng.Float64()
		}
		weights := make([]float64, n)
		var sum float64
		for i := range weights {
			weights[i] = 0.1 + rng.Float64()
			sum += weights[i]
		}
		ts := make([]uncertain.Tuple, n)
		for i := range ts {
			ts[i] = uncertain.Tuple{
				ID:    fmt.Sprintf("g%d.%d", g, i),
				Attrs: []float64{rng.Float64() * 100},
				Prob:  weights[i] / sum * target,
			}
		}
		if err := db.AddXTuple(fmt.Sprintf("G%d", g), ts...); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Build(uncertain.ByFirstAttr); err != nil {
		t.Fatal(err)
	}

	prior, err := topkq.TopKProbabilities(db, k)
	if err != nil {
		t.Fatal(err)
	}
	version := db.Version()
	for step := 0; step < 30; step++ {
		score := rng.Float64() * 110 // above, inside, and below the prefix
		name := fmt.Sprintf("S%d", step)
		if err := db.InsertXTuple(name,
			uncertain.Tuple{ID: name + ".a", Attrs: []float64{score}, Prob: 0.3 + 0.6*rng.Float64()}); err != nil {
			t.Fatal(err)
		}
		wm, ok := db.DirtySince(version)
		if !ok {
			t.Fatalf("step %d: DirtySince unanswerable", step)
		}
		version = db.Version()
		resumed, err := topkq.Resume(db, prior, wm)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		evResumed, err := TPFromInfo(db, resumed)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		evFresh, err := TP(db, k)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if evResumed.S != evFresh.S {
			t.Fatalf("step %d: S = %v from resumed info, %v fresh", step, evResumed.S, evFresh.S)
		}
		if len(evResumed.Omega) != len(evFresh.Omega) {
			t.Fatalf("step %d: len(Omega) = %d, fresh %d", step, len(evResumed.Omega), len(evFresh.Omega))
		}
		for i := range evResumed.Omega {
			if evResumed.Omega[i] != evFresh.Omega[i] {
				t.Fatalf("step %d: Omega[%d] = %v, fresh %v", step, i, evResumed.Omega[i], evFresh.Omega[i])
			}
		}
		if err := sameGainBits(evResumed.Gains(), evFresh.Gains()); err != nil {
			t.Fatalf("step %d: resumed vs fresh gains: %v", step, err)
		}
		prior = resumed
	}
}

// sameGainBits compares two sparse gain vectors entry by entry, values by
// their bit patterns.
func sameGainBits(a, b Gains) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d entries vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Group != b[i].Group || math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return fmt.Errorf("entry %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return nil
}
