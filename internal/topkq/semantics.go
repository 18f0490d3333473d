package topkq

import (
	"fmt"
	"sort"
	"strings"

	"github.com/probdb/topkclean/internal/uncertain"
)

// RankedAnswer is one entry of a U-kRanks answer: the tuple most likely to
// occupy rank H, together with that probability.
//
// ID, Score, and Rank are snapshots taken when the answer was built:
// later database mutations renumber the live tuple's rank position (and
// x-tuple index) in place, so an answer that only pointed at the tuple
// would silently change under the caller. The snapshots — and Prob — stay
// fixed; Tuple remains for callers that want the live alternative.
type RankedAnswer struct {
	H     int
	Tuple *uncertain.Tuple // live alternative; its indices track later mutations
	ID    string           // tuple ID at answer time
	Score float64          // ranking score at answer time
	Rank  int              // rank position at answer time (0 = highest)
	Prob  float64
}

// ScoredAnswer is one entry of a PT-k or Global-topk answer: a tuple with
// its top-k probability. ID, Score, and Rank are answer-time snapshots,
// for the same reason as RankedAnswer's.
type ScoredAnswer struct {
	Tuple *uncertain.Tuple // live alternative; its indices track later mutations
	ID    string           // tuple ID at answer time
	Score float64          // ranking score at answer time
	Rank  int              // rank position at answer time (0 = highest)
	Prob  float64
}

// snapshotRanked builds a RankedAnswer snapshotting t's answer-time state.
func snapshotRanked(h int, t *uncertain.Tuple, rank int, prob float64) RankedAnswer {
	return RankedAnswer{H: h, Tuple: t, ID: t.ID, Score: t.Score, Rank: rank, Prob: prob}
}

// snapshotScored builds a ScoredAnswer snapshotting t's answer-time state.
func snapshotScored(t *uncertain.Tuple, rank int, prob float64) ScoredAnswer {
	return ScoredAnswer{Tuple: t, ID: t.ID, Score: t.Score, Rank: rank, Prob: prob}
}

// UKRanks evaluates the U-kRanks query [10]: for each rank h = 1..k, the
// real tuple whose probability of appearing at exactly rank h in a
// pw-result is largest. Ties break toward the higher-ranked tuple, making
// the answer deterministic. The same tuple may win several ranks, which is
// a known property of the U-kRanks semantics. Requires info computed with
// RankProbabilities on src.
//
// The winners are picked from the U-kRanks cells the scan kept for each
// block of info's real positions, O(k) per block, so src is read only at
// the winning positions. Strictly-greater comparisons in ascending block
// order, over cells that each hold their block's first best position,
// keep the earliest (highest-ranked) winner for each h.
func UKRanks(src Source, info *RankInfo) ([]RankedAnswer, error) {
	if !info.HasRho() {
		return nil, fmt.Errorf("topkq: UKRanks needs per-rank probabilities; use RankProbabilities")
	}
	k := info.K
	bestP := make([]float64, k+1)
	bestI := make([]int, k+1)
	for h := range bestI {
		bestI[h] = -1
	}
	for b := range (info.nullStart + checkpointEvery - 1) / checkpointEvery {
		for h, c := range info.win[b] {
			if c.p > bestP[h+1] {
				bestP[h+1], bestI[h+1] = c.p, c.pos
			}
		}
	}
	out := make([]RankedAnswer, 0, k)
	for h := 1; h <= k; h++ {
		if i := bestI[h]; i >= 0 {
			out = append(out, snapshotRanked(h, src.AtRank(i), i, bestP[h]))
		}
	}
	return out, nil
}

// PTK evaluates the PT-k query [11]: every real tuple whose top-k
// probability is at least threshold, in descending rank order. It picks
// from info's real positions and reads src only at the answers.
func PTK(src Source, info *RankInfo, threshold float64) []ScoredAnswer {
	var out []ScoredAnswer
	for i, p := range info.TopK[:info.nullStart] {
		if p >= threshold {
			out = append(out, snapshotScored(src.AtRank(i), i, p))
		}
	}
	return out
}

// GlobalTopK evaluates the Global-topk query [13]: the k real tuples with
// the highest top-k probabilities, ties broken toward the higher-ranked
// tuple (the tie-break used in Zhang and Chomicki's definition). Like
// UKRanks, it picks from info's real positions and reads src only at the
// k winners.
//
// The answer is kept sorted in a slice of at most k entries while the
// positions are read in rank order: a candidate goes after every kept
// entry of equal or higher probability (which all rank above it), so the
// slice is always the first k of the stable (probability descending, rank
// ascending) order. Time O(Processed·log k), space O(k).
func GlobalTopK(src Source, info *RankInfo) []ScoredAnswer {
	k := info.K
	out := make([]ScoredAnswer, 0, k)
	for i, p := range info.TopK[:info.nullStart] {
		if p <= 0 || (len(out) == k && out[k-1].Prob >= p) {
			continue
		}
		at := sort.Search(len(out), func(j int) bool { return out[j].Prob < p })
		if len(out) < k {
			out = append(out, ScoredAnswer{})
		}
		copy(out[at+1:], out[at:len(out)-1])
		out[at] = ScoredAnswer{Rank: i, Prob: p}
	}
	for j, a := range out {
		out[j] = snapshotScored(src.AtRank(a.Rank), a.Rank, a.Prob)
	}
	return out
}

// FormatScored renders a scored answer list compactly, e.g. "{t1, t2, t5}".
// It reads the snapshot IDs, so the rendering of an answer is stable under
// later database mutations.
func FormatScored(answers []ScoredAnswer) string {
	ids := make([]string, len(answers))
	for i, a := range answers {
		ids[i] = a.ID
	}
	return "{" + strings.Join(ids, ", ") + "}"
}

// FormatRanked renders a U-kRanks answer list, e.g. "1:t1 2:t2", from the
// snapshot IDs.
func FormatRanked(answers []RankedAnswer) string {
	parts := make([]string, len(answers))
	for i, a := range answers {
		parts[i] = fmt.Sprintf("%d:%s", a.H, a.ID)
	}
	return strings.Join(parts, " ")
}
