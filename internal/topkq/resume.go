package topkq

import (
	"errors"
	"fmt"

	"github.com/probdb/topkclean/internal/uncertain"
)

// ErrCannotResume is returned when the prior RankInfo does not carry the
// scan checkpoints Resume needs (it is nil, zero, or came from the naive
// baseline rather than the PSR scan).
var ErrCannotResume = errors.New("topkq: rank info lacks the scan checkpoints needed to resume")

// Resume recomputes rank-probability information for db after mutations,
// reusing prior — an info computed by RankProbabilities or
// TopKProbabilities (or a previous Resume) on an earlier version of the
// same database. fromRank must be a dirty-rank watermark for the mutations
// between the two versions, i.e. a position such that every rank position
// strictly below it holds the same tuple with the same score and
// probability in both versions; Database.DirtySince provides exactly this.
// The result is bit-identical to a from-scratch pass of the same kind
// (rho-retaining or top-k-only, matching prior), including Processed,
// Rebuilds, and every probability — but costs only the replay from the
// last checkpoint at or below fromRank instead of the whole prefix:
//
//   - fromRank at or beyond the early-termination point of an
//     early-terminated prior is a pure cache hit (Lemma 2 already proved
//     every position from there on has p = 0, and the mutation cannot
//     un-fill the k certainly-contributing x-tuples above it): prior's
//     arrays are re-used wholesale, no scanning at all.
//   - otherwise the scan replays from the last checkpoint at or below
//     fromRank, so a mutation at the bottom of the processed prefix costs
//     O(k * checkpointEvery) instead of O(k * Processed), and O(k * Δ)
//     overall for a suffix of length Δ.
//
// Resume never mutates prior; it returns a new RankInfo (sharing prior's
// immutable prefix data where possible). Passing a fromRank that is not a
// valid watermark for the intervening mutations yields undefined results.
func Resume(db *uncertain.Database, prior *RankInfo, fromRank int) (*RankInfo, error) {
	if !db.Built() {
		return nil, uncertain.ErrNotBuilt
	}
	if prior == nil || !prior.CanResume() {
		return nil, ErrCannotResume
	}
	k := prior.K
	if k < 1 {
		return nil, fmt.Errorf("k = %d: %w", k, ErrBadK)
	}
	m := db.NumGroups()
	if k > m {
		return nil, fmt.Errorf("k = %d, m = %d: %w", k, m, ErrKTooLarge)
	}
	if fromRank < 0 {
		fromRank = 0
	}
	n := db.NumTuples()
	if prior.Processed < prior.N && fromRank >= prior.Processed {
		// Pure cache hit: the prior scan terminated early at Processed
		// (fullGroups reached k there), every mutation lies at or below
		// that point, and mutations below the termination point cannot
		// change any group's mass above it — so the prefix, the
		// termination point, and the p = 0 suffix all stand.
		out := *prior
		out.N = n
		return &out, nil
	}

	target := fromRank
	if target > prior.Processed {
		target = prior.Processed
	}
	keepRho := prior.HasRho()
	var st *scanState
	start := 0
	rebuilds := 0
	used := -1
	// Latest restorable checkpoint at or below the watermark. Falling back
	// to an earlier checkpoint (or to a fresh state at position 0) is
	// always safe — it just replays more.
	for ci := len(prior.ckpts) - 1; ci >= 0; ci-- {
		c := &prior.ckpts[ci]
		if c.pos > target {
			continue
		}
		if s, ok := c.restore(db, k); ok {
			st, start, rebuilds, used = s, c.pos, c.rebuilds, ci
			break
		}
	}
	if st == nil {
		st = newScanState(k, m)
	}

	info := &RankInfo{K: k, N: n, Rebuilds: rebuilds, deconvLim: prior.deconvLim}
	info.TopK = make([]float64, start, start+256)
	copy(info.TopK, prior.TopK[:start])
	if keepRho {
		// Rows are immutable once built, so sharing them with prior is
		// safe; only the outer slice is fresh.
		info.rho = make([][]float64, start, start+256)
		copy(info.rho, prior.rho[:start])
	}
	if used >= 0 {
		// Checkpoints at or below the splice point are valid for the new
		// pass too (active lists only grow along the scan, so if the used
		// checkpoint restored, every earlier one does as well).
		info.ckpts = append(info.ckpts, prior.ckpts[:used+1]...)
	}
	return scanFrom(db, info, st, start, keepRho)
}
