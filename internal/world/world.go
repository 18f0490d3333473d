// Package world implements the possible-world semantics (PWS) of Section
// III-A: a probabilistic database is viewed as a set of possible worlds,
// each containing exactly one alternative per x-tuple, with probability
// equal to the product of the chosen alternatives' existential
// probabilities. The package provides exhaustive enumeration (exponential;
// the paper's PW baseline and our ground truth in tests), Monte-Carlo
// sampling, and deterministic top-k evaluation within a world.
package world

import (
	"math"

	"github.com/probdb/topkclean/internal/uncertain"
)

// World is one possible world: the chosen alternative index for each
// x-tuple (an index into XTuple.Tuples, which includes the materialized
// null alternative).
type World struct {
	Choices []int
	Prob    float64
}

// Count returns the number of possible worlds of db as a float64 (it
// overflows int64 quickly: every x-tuple multiplies by its alternative
// count).
func Count(db *uncertain.Database) float64 {
	count := 1.0
	for _, x := range db.Groups() {
		count *= float64(len(x.Tuples))
	}
	return count
}

// Enumerate visits every possible world of db in lexicographic choice
// order. The visitor receives a World whose Choices slice is reused between
// calls; copy it if it must be retained. Returning false stops the
// enumeration early. Enumerate is exponential in the number of x-tuples and
// intended for small databases (ground truth, the PW baseline).
func Enumerate(db *uncertain.Database, visit func(World) bool) {
	groups := db.Groups()
	m := len(groups)
	if m == 0 {
		return
	}
	choices := make([]int, m)
	for {
		prob := 1.0
		for gi, c := range choices {
			prob *= groups[gi].Tuples[c].Prob
		}
		if !visit(World{Choices: choices, Prob: prob}) {
			return
		}
		// Advance the odometer: increment the last group that still has
		// alternatives left, resetting everything after it.
		i := m - 1
		for i >= 0 {
			choices[i]++
			if choices[i] < len(groups[i].Tuples) {
				break
			}
			choices[i] = 0
			i--
		}
		if i < 0 {
			return
		}
	}
}

// Contains reports whether the world includes the given tuple.
func (w World) Contains(t *uncertain.Tuple, db *uncertain.Database) bool {
	g := db.GroupAt(t.Group)
	return g.Tuples[w.Choices[t.Group]] == t
}

// TopK returns the k highest-ranked tuples of the world in descending rank
// order, using the database's global rank order. The result always has
// exactly min(k, m) entries because every x-tuple contributes exactly one
// alternative (nulls are materialized).
func TopK(db *uncertain.Database, w World, k int) []*uncertain.Tuple {
	if m := db.NumGroups(); k > m {
		k = m
	}
	out := make([]*uncertain.Tuple, 0, k)
	// Chunk cursor rather than db.Sorted(): Monte-Carlo verification calls
	// TopK once per sampled world, and materializing the whole rank order
	// per call would be an O(n) allocation for a scan that usually stops
	// after the top few positions.
	cur := db.CursorAt(0)
	for t := cur.Next(); t != nil; t = cur.Next() {
		if db.GroupAt(t.Group).Tuples[w.Choices[t.Group]] == t {
			out = append(out, t)
			if len(out) == k {
				break
			}
		}
	}
	return out
}

// TotalProb sums the probabilities of all worlds; it should be 1 up to
// floating-point tolerance. Exposed for validation and tests.
func TotalProb(db *uncertain.Database) float64 {
	var sum float64
	Enumerate(db, func(w World) bool {
		sum += w.Prob
		return true
	})
	return sum
}

// MaxEnumerableWorlds is a guardrail for callers that would otherwise
// accidentally enumerate an astronomically large world set.
const MaxEnumerableWorlds = 5e7

// Enumerable reports whether db is small enough for exhaustive enumeration.
func Enumerable(db *uncertain.Database) bool {
	c := Count(db)
	return !math.IsInf(c, 0) && c <= MaxEnumerableWorlds
}
