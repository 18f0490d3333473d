package uncertain

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// dbSpec is a quick-generatable description of a probabilistic database.
// Implementing quick.Generator keeps the shrink-free but wide random
// exploration inside the standard testing/quick machinery.
type dbSpec struct {
	Groups [][]tupleSpec
}

type tupleSpec struct {
	Score float64
	Prob  float64
}

// Generate builds a random database spec with 1..6 x-tuples of 1..4
// alternatives each, total mass per x-tuple in (0, 1].
func (dbSpec) Generate(rng *rand.Rand, _ int) reflect.Value {
	spec := dbSpec{}
	groups := 1 + rng.Intn(6)
	for g := 0; g < groups; g++ {
		n := 1 + rng.Intn(4)
		target := 1.0
		if rng.Intn(2) == 0 {
			target = 0.1 + 0.85*rng.Float64()
		}
		weights := make([]float64, n)
		sum := 0.0
		for i := range weights {
			weights[i] = 0.05 + rng.Float64()
			sum += weights[i]
		}
		ts := make([]tupleSpec, n)
		for i := range ts {
			ts[i] = tupleSpec{
				Score: math.Round(rng.Float64()*1000) / 10,
				Prob:  weights[i] / sum * target,
			}
		}
		spec.Groups = append(spec.Groups, ts)
	}
	return reflect.ValueOf(spec)
}

func (s dbSpec) build() (*Database, error) {
	db := New()
	id := 0
	for g, ts := range s.Groups {
		tuples := make([]Tuple, len(ts))
		for i, t := range ts {
			tuples[i] = Tuple{ID: fmt.Sprintf("t%d", id), Attrs: []float64{t.Score}, Prob: t.Prob}
			id++
		}
		if err := db.AddXTuple(fmt.Sprintf("X%d", g), tuples...); err != nil {
			return nil, err
		}
	}
	if err := db.Build(ByFirstAttr); err != nil {
		return nil, err
	}
	return db, nil
}

func TestQuickBuildProducesTotalOrder(t *testing.T) {
	f := func(s dbSpec) bool {
		db, err := s.build()
		if err != nil {
			return false
		}
		sorted := db.Sorted()
		for i := 1; i < len(sorted); i++ {
			a, b := sorted[i-1], sorted[i]
			if ranksAbove(b, a) {
				return false // order violated
			}
			if a == b {
				return false
			}
		}
		// Index assignments agree with positions.
		for i, tp := range sorted {
			if tp.Index() != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGroupMassesSumToOne(t *testing.T) {
	f := func(s dbSpec) bool {
		db, err := s.build()
		if err != nil {
			return false
		}
		for _, x := range db.Groups() {
			var mass float64
			for _, tp := range x.Tuples {
				if tp.Prob <= 0 || tp.Prob > 1 {
					return false
				}
				mass += tp.Prob
			}
			if math.Abs(mass-1) > 1e-9 {
				return false
			}
		}
		return db.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCloneIsIndependentAndEquivalent(t *testing.T) {
	f := func(s dbSpec) bool {
		db, err := s.build()
		if err != nil {
			return false
		}
		cp := db.Clone()
		if cp.NumGroups() != db.NumGroups() || cp.NumTuples() != db.NumTuples() {
			return false
		}
		for i, tp := range db.Sorted() {
			other := cp.Sorted()[i]
			if other == tp {
				return false // must be distinct objects
			}
			if other.ID != tp.ID || other.Prob != tp.Prob || other.Score != tp.Score {
				return false
			}
		}
		return cp.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCleanedPreservesInvariants(t *testing.T) {
	f := func(s dbSpec, gRaw, cRaw uint8) bool {
		db, err := s.build()
		if err != nil {
			return false
		}
		g := int(gRaw) % db.NumGroups()
		group := db.Groups()[g]
		c := int(cRaw) % len(group.Tuples)
		cleaned, err := db.Cleaned(map[int]int{g: c})
		if err != nil {
			return false
		}
		if cleaned.NumGroups() != db.NumGroups() {
			return false
		}
		ng, err := cleaned.Group(g)
		if err != nil || !ng.Certain() {
			return false
		}
		return cleaned.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
