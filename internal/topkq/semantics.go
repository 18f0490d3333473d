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
// The winners are picked from info alone, so src is read only at the
// winning positions. A null alternative never answers: in the rare prefix
// where one wins a rank, the pick is repeated without the prefix's nulls.
func UKRanks(src Source, info *RankInfo) ([]RankedAnswer, error) {
	if !info.HasRho() {
		return nil, fmt.Errorf("topkq: UKRanks needs per-rank probabilities; use RankProbabilities")
	}
	out, ok := ukRanks(src, info, nil)
	if !ok {
		out, _ = ukRanks(src, info, nullPositions(src, info))
	}
	return out, nil
}

// ukRanks picks the U-kRanks winners among the processed positions not
// marked in null (a nil null marks none). Strictly-greater comparisons
// in ascending rank order keep the earliest (highest-ranked) winner for
// each h. It reports false when a winner holds a null alternative.
func ukRanks(src Source, info *RankInfo, null []bool) ([]RankedAnswer, bool) {
	k := info.K
	bestP := make([]float64, k+1)
	bestI := make([]int, k+1)
	for h := range bestI {
		bestI[h] = -1
	}
	for i := range info.Processed {
		if null != nil && null[i] {
			continue
		}
		row := info.rhoRow(i)
		for h := 1; h <= k; h++ {
			if p := row[h-1]; p > bestP[h] {
				bestP[h], bestI[h] = p, i
			}
		}
	}
	out := make([]RankedAnswer, 0, k)
	for h := 1; h <= k; h++ {
		if i := bestI[h]; i >= 0 {
			t := tupleAt(src, i)
			if t.Null {
				return nil, false
			}
			out = append(out, snapshotRanked(h, t, i, bestP[h]))
		}
	}
	return out, true
}

// tupleAt returns the alternative at rank position i of src.
func tupleAt(src Source, i int) *uncertain.Tuple {
	for t := range src.Ranked(i) {
		return t
	}
	return nil
}

// nullPositions marks the processed positions of info that hold a null
// alternative in src: one walk over the prefix.
func nullPositions(src Source, info *RankInfo) []bool {
	null := make([]bool, info.Processed)
	i := 0
	for t := range Prefix(src, info.Processed) {
		null[i] = t.Null
		i++
	}
	return null
}

// PTK evaluates the PT-k query [11]: every real tuple whose top-k
// probability is at least threshold, in descending rank order.
func PTK(src Source, info *RankInfo, threshold float64) []ScoredAnswer {
	var out []ScoredAnswer
	i := -1
	for t := range Prefix(src, info.Processed) {
		i++
		if t.Null {
			continue
		}
		if p := info.P(i); p >= threshold {
			out = append(out, snapshotScored(t, i, p))
		}
	}
	return out
}

// GlobalTopK evaluates the Global-topk query [13]: the k real tuples with
// the highest top-k probabilities, ties broken toward the higher-ranked
// tuple (the tie-break used in Zhang and Chomicki's definition). Like
// UKRanks, it picks from info alone and reads src only at the k winners.
func GlobalTopK(src Source, info *RankInfo) []ScoredAnswer {
	out, ok := globalTopK(src, info, nil)
	if !ok {
		out, _ = globalTopK(src, info, nullPositions(src, info))
	}
	return out
}

// globalTopK picks the Global-topk winners among the processed positions
// not marked in null, reporting false when a winner holds a null
// alternative. The answer is kept sorted in a slice of at most k entries
// while the prefix is read in rank order: a candidate goes after every
// kept entry of equal or higher probability (which all rank above it), so
// the slice is always the first k of the stable (probability descending,
// rank ascending) order. Time O(Processed·log k), space O(k).
func globalTopK(src Source, info *RankInfo, null []bool) ([]ScoredAnswer, bool) {
	k := info.K
	out := make([]ScoredAnswer, 0, k)
	for i, p := range info.TopK[:info.Processed] {
		if (null != nil && null[i]) || p <= 0 || (len(out) == k && out[k-1].Prob >= p) {
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
		t := tupleAt(src, a.Rank)
		if t.Null {
			return nil, false
		}
		out[j] = snapshotScored(t, a.Rank, a.Prob)
	}
	return out, true
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
