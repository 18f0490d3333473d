package world

import (
	"math/rand"

	"github.com/probdb/topkclean/internal/uncertain"
)

// Sampler draws independent possible worlds from a database's world
// distribution. It is used by the Monte-Carlo verification of the cleaning
// model (expected quality improvement) and by the examples.
type Sampler struct {
	db  *uncertain.Database
	rng *rand.Rand
	// cumulative probability tables per group, to draw alternatives in
	// O(log |tau_l|) each.
	cum [][]float64
}

// NewSampler prepares a sampler over db using rng.
func NewSampler(db *uncertain.Database, rng *rand.Rand) *Sampler {
	s := &Sampler{db: db, rng: rng}
	groups := db.Groups()
	s.cum = make([][]float64, len(groups))
	for gi, x := range groups {
		c := make([]float64, len(x.Tuples))
		var run float64
		for ti, t := range x.Tuples {
			run += t.Prob
			c[ti] = run
		}
		s.cum[gi] = c
	}
	return s
}

// Sample draws one world. The returned Choices slice is freshly allocated.
func (s *Sampler) Sample() World {
	choices := make([]int, len(s.cum))
	prob := 1.0
	for gi := range choices {
		x := s.db.GroupAt(gi)
		u := s.rng.Float64() * s.cum[gi][len(s.cum[gi])-1]
		// Binary search the cumulative table.
		lo, hi := 0, len(s.cum[gi])-1
		for lo < hi {
			mid := (lo + hi) / 2
			if s.cum[gi][mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		choices[gi] = lo
		prob *= x.Tuples[lo].Prob
	}
	return World{Choices: choices, Prob: prob}
}
