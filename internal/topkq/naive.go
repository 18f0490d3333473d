package topkq

import (
	"fmt"

	"github.com/probdb/topkclean/internal/uncertain"
	"github.com/probdb/topkclean/internal/world"
)

// NaiveRankProbabilities computes the same RankInfo as PSR by exhaustively
// enumerating possible worlds, evaluating a deterministic top-k query in
// each, and aggregating (the conceptual Steps 1-2 of Figure 1(a)). It is
// exponential in the number of x-tuples and exists as ground truth for the
// property tests and as the baseline the paper calls the possible-world
// query process.
func NaiveRankProbabilities(db *uncertain.Database, k int) (*RankInfo, error) {
	if !db.Built() {
		return nil, uncertain.ErrNotBuilt
	}
	if k < 1 {
		return nil, fmt.Errorf("k = %d: %w", k, ErrBadK)
	}
	if k > db.NumGroups() {
		return nil, fmt.Errorf("k = %d, m = %d: %w", k, db.NumGroups(), ErrKTooLarge)
	}
	if !world.Enumerable(db) {
		return nil, fmt.Errorf("topkq: database too large for naive evaluation (%g worlds)", world.Count(db))
	}
	n := db.NumTuples()
	info := &RankInfo{K: k, N: n, TopK: make([]float64, n), Processed: n, nullStart: db.NumRealTuples()}
	info.rho = make([][]float64, (n+checkpointEvery-1)/checkpointEvery)
	for b := range info.rho {
		info.rho[b] = make([]float64, k*checkpointEvery)
	}
	world.Enumerate(db, func(w world.World) bool {
		top := world.TopK(db, w, k)
		for h, t := range top {
			info.rhoRow(t.Index())[h] += w.Prob
			info.TopK[t.Index()] += w.Prob
		}
		return true
	})
	return info, nil
}
