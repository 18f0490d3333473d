package uncertain

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// stableRankOrder is the reference for Build's rank order: every
// alternative of a built database in staging order (group by group, each
// x-tuple's null last), stably sorted under ranksAbove.
func stableRankOrder(db *Database) []*Tuple {
	var order []*Tuple
	for _, x := range db.groups.All() {
		order = append(order, x.Tuples...)
	}
	sort.SliceStable(order, func(i, j int) bool { return ranksAbove(order[i], order[j]) })
	return order
}

// tieScores is the score pool of the order-equivalence property: few
// values, so ties are common, with signed zeros and both infinities.
var tieScores = []float64{math.Inf(1), 7, 3.5, 3.5, 1, math.Copysign(0, -1), 0, -2, math.Inf(-1)}

// randomStaged stages a random database: absent x-tuples, x-tuples at
// full mass and x-tuples with a deficit (a materialized null), scores
// drawn from tieScores and, when seq is set, explicit stamps drawn from a
// small range so that several tuples share a stamp.
func randomStaged(t *testing.T, rng *rand.Rand, seq bool) *Database {
	t.Helper()
	db := New()
	id := 0
	for g, groups := 0, 1+rng.Intn(40); g < groups; g++ {
		name := fmt.Sprintf("X%d", g)
		if rng.Intn(6) == 0 {
			if err := db.AddAbsentXTuple(name); err != nil {
				t.Fatal(err)
			}
			continue
		}
		n := 1 + rng.Intn(5)
		mass := 1.0
		if rng.Intn(2) == 0 {
			mass = 0.2 + 0.7*rng.Float64()
		}
		tuples := make([]Tuple, n)
		seqs := make([]int, n)
		for i := range tuples {
			tuples[i] = Tuple{ID: fmt.Sprintf("t%d", id), Attrs: []float64{tieScores[rng.Intn(len(tieScores))]}, Prob: mass / float64(n)}
			seqs[i] = rng.Intn(8)
			id++
		}
		var err error
		if seq {
			err = db.AddXTupleSeq(name, seqs, tuples...)
		} else {
			err = db.AddXTuple(name, tuples...)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestBuildOrderMatchesStableSort checks Build's key sort against the
// stable merge sort it replaced, position for position, on databases
// with score ties, signed zeros, infinities, duplicate explicit stamps,
// absent x-tuples and materialized nulls.
func TestBuildOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 400; trial++ {
		db := randomStaged(t, rng, trial%2 == 1)
		if err := db.Build(ByFirstAttr); err != nil {
			t.Fatal(err)
		}
		got, want := db.Sorted(), stableRankOrder(db)
		if len(got) != len(want) {
			t.Fatalf("trial %d: Sorted has %d tuples, reference %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d position %d: Build placed %v (stamp %d), stable sort %v (stamp %d)",
					trial, i, got[i], got[i].ord, want[i], want[i].ord)
			}
		}
		if err := db.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestBuildReportsFirstFault pins which error Build returns when the
// staged data holds several faults: the first failing tuple in staging
// order, whether it fails validation, the duplicate-ID check (its own or
// its x-tuple's materialized null) or the NaN-score check.
func TestBuildReportsFirstFault(t *testing.T) {
	nan := math.NaN()
	type alt struct {
		id    string
		score float64
		prob  float64
	}
	cases := []struct {
		name    string
		groups  [][]alt
		corrupt string // x-tuple whose first alternative gets Prob 2 after staging
		want    error
		wantIn  string
	}{
		{"nan before duplicate", [][]alt{{{"a", 1, 1}}, {{"b", nan, 1}}, {{"a", 2, 1}}}, "", ErrBadScore, `"b"`},
		{"duplicate before nan", [][]alt{{{"a", 1, 1}}, {{"a", 2, 1}}, {{"c", nan, 1}}}, "", ErrDuplicateID, `"a"`},
		{"nan before duplicate in one x-tuple", [][]alt{{{"a", 1, 0.5}}, {{"b", nan, 0.5}, {"a", 1, 0.5}}}, "", ErrBadScore, `"b"`},
		{"invalid x-tuple before nan", [][]alt{{{"a", 1, 1}}, {{"b", 1, 0.5}}, {{"c", nan, 1}}}, "X1", ErrProbOutOfRange, "X1"},
		{"nan before invalid x-tuple", [][]alt{{{"a", nan, 1}}, {{"b", 1, 0.5}}}, "X1", ErrBadScore, `"a"`},
		{"null duplicate before nan", [][]alt{{{"null:X1", 1, 1}}, {{"b", 1, 0.5}}, {{"c", nan, 1}}}, "", ErrDuplicateID, `"null:X1"`},
		{"nan before null duplicate", [][]alt{{{"null:X2", 1, 1}}, {{"b", nan, 1}}, {{"c", 1, 0.5}}}, "", ErrBadScore, `"b"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := New()
			for g, alts := range c.groups {
				ts := make([]Tuple, len(alts))
				for i, a := range alts {
					ts[i] = Tuple{ID: a.id, Attrs: []float64{a.score}, Prob: a.prob}
				}
				if err := db.AddXTuple(fmt.Sprintf("X%d", g), ts...); err != nil {
					t.Fatal(err)
				}
			}
			for _, x := range db.groups.All() {
				if x.Name == c.corrupt {
					//lint:allow frozenwrite injects a fault Build's validation must catch; the staged database is never published
					x.Tuples[0].Prob = 2
				}
			}
			err := db.Build(ByFirstAttr)
			if !errors.Is(err, c.want) || !strings.Contains(err.Error(), c.wantIn) {
				t.Fatalf("err = %v, want %v naming %s", err, c.want, c.wantIn)
			}
		})
	}
}
