package topkq

import (
	"fmt"
	"sort"

	"github.com/probdb/topkclean/internal/uncertain"
)

// This file is the stream form of the PSR scan, used by the sharded engine
// (internal/shard): the coordinator merges per-shard rank orders into one
// logical descending stream and feeds it to ScanStream, which runs the
// same per-position kernel as scanFrom (scanState.step), so the resulting
// probabilities are bit-identical to a scan of the equivalent unsharded
// database. The only difference is that no checkpoints are recorded: a
// stream info cannot seed Resume (CanResume reports false), which is fine
// because the shard coordinator re-merges from shard snapshots instead of
// resuming.

// StreamTuple is one alternative delivered by a merged scan stream: the
// tuple (owned by some shard database) plus the group index it has in the
// *global* database — shard-local group numbering is meaningless to the
// PSR recurrence, which needs one event slot per logical x-tuple.
type StreamTuple struct {
	T     *uncertain.Tuple
	Group int
}

// StreamInfo is the result of a stream scan: the RankInfo plus the
// processed prefix of the stream itself, which the stream query semantics
// (UKRanksStream, PTKStream, GlobalTopKStream) and quality evaluation
// (quality.TPFromStream) iterate in place of a database cursor.
type StreamInfo struct {
	*RankInfo
	Prefix []StreamTuple
}

// ScanStream runs the PSR scan over an externally merged rank stream of n
// alternatives across m groups. next returns the stream's tuples in
// descending global rank order together with their global group index; it
// is called lazily, so Lemma 2's early termination pulls nothing past the
// termination point (the property the shard coordinator's pull bound —
// at most processed + N shard pulls — rests on). A stream that ends early
// (next reports false) terminates the scan as if Lemma 2 had fired, which
// keeps the scan total on malformed streams; a correct merge never does
// this before n tuples.
func ScanStream(k, m, n int, next func() (*uncertain.Tuple, int, bool), keepRho bool) (*StreamInfo, error) {
	if k < 1 {
		return nil, fmt.Errorf("k = %d: %w", k, ErrBadK)
	}
	if k > m {
		return nil, fmt.Errorf("k = %d, m = %d: %w", k, m, ErrKTooLarge)
	}
	info := &RankInfo{K: k, N: n, TopK: make([]float64, 0, 256)}
	if keepRho {
		info.rho = make([][]float64, 0, 256)
	}
	si := &StreamInfo{RankInfo: info, Prefix: make([]StreamTuple, 0, 256)}
	st := newScanState(k, m)
	defer st.release()
	for i := 0; i < n; i++ {
		if st.fullGroups >= k {
			info.Processed = i
			return si, nil
		}
		t, l, ok := next()
		if !ok {
			info.Processed = i
			return si, nil
		}
		si.Prefix = append(si.Prefix, StreamTuple{T: t, Group: l})
		st.step(info, l, t.Prob, deconvLimit, keepRho)
	}
	info.Processed = n
	return si, nil
}

// UKRanksStream is UKRanks over a stream scan's prefix: same per-rank
// argmax, same strictly-greater tie-break in ascending rank order.
func UKRanksStream(si *StreamInfo) ([]RankedAnswer, error) {
	if !si.HasRho() {
		return nil, fmt.Errorf("topkq: UKRanks needs per-rank probabilities; use RankProbabilities")
	}
	k := si.K
	limit := si.Processed
	bestP := make([]float64, k+1)
	bestI := make([]int, k+1)
	bestT := make([]*uncertain.Tuple, k+1)
	for h := range bestI {
		bestI[h] = -1
	}
	for i := 0; i < limit; i++ {
		t := si.Prefix[i].T
		if t.Null {
			continue
		}
		for h := 1; h <= k; h++ {
			if p := si.Rho(i, h); p > bestP[h] {
				bestP[h], bestI[h], bestT[h] = p, i, t
			}
		}
	}
	out := make([]RankedAnswer, 0, k)
	for h := 1; h <= k; h++ {
		if bestI[h] >= 0 {
			out = append(out, snapshotRanked(h, bestT[h], bestI[h], bestP[h]))
		}
	}
	return out, nil
}

// PTKStream is PTK over a stream scan's prefix.
func PTKStream(si *StreamInfo, threshold float64) []ScoredAnswer {
	var out []ScoredAnswer
	limit := si.Processed
	for i := 0; i < limit; i++ {
		t := si.Prefix[i].T
		if t.Null {
			continue
		}
		if p := si.P(i); p >= threshold {
			out = append(out, snapshotScored(t, i, p))
		}
	}
	return out
}

// GlobalTopKStream is GlobalTopK over a stream scan's prefix.
func GlobalTopKStream(si *StreamInfo) []ScoredAnswer {
	limit := si.Processed
	cand := make([]ScoredAnswer, 0, limit)
	for i := 0; i < limit; i++ {
		t := si.Prefix[i].T
		if t.Null {
			continue
		}
		if p := si.P(i); p > 0 {
			cand = append(cand, snapshotScored(t, i, p))
		}
	}
	sort.SliceStable(cand, func(a, b int) bool {
		if cand[a].Prob != cand[b].Prob {
			return cand[a].Prob > cand[b].Prob
		}
		return cand[a].Rank < cand[b].Rank
	})
	if len(cand) > si.K {
		cand = cand[:si.K]
	}
	return cand
}
