// Package topkq implements probabilistic top-k query evaluation: the PSR
// rank-probability algorithm (Bernecker et al. [15], as used in Section
// IV-B of the paper) and the three query semantics built on it — U-kRanks
// [10], PT-k [11], and Global-topk [13] — together with brute-force
// possible-world baselines used as ground truth in tests.
package topkq

import "github.com/probdb/topkclean/internal/uncertain"

// RankInfo holds the rank probability information of Figure 1(b): for each
// alternative (indexed by its position in the database's rank order) the
// rank-h probabilities rho_i(h) and the top-k probability p_i. It is the
// artifact shared between query evaluation and quality computation
// (Section IV-C).
//
// A RankInfo is immutable once returned: Resume builds a new info (sharing
// immutable prefix data) rather than updating one in place, so answers
// derived from an older version's info stay valid after mutations.
type RankInfo struct {
	K int
	N int // alternatives in the database the info was computed on

	// TopK[i] = p_i for the leading Processed rank positions. The early
	// termination of Lemma 2 guarantees p_i = 0 beyond that prefix, so the
	// suffix is not materialized; use P(i), which returns 0 there.
	TopK []float64

	// rho[i][h-1] = rho_i(h); nil when the info was computed with
	// TopKProbabilities (quality evaluation does not need per-rank detail).
	rho [][]float64

	// Processed is the number of leading rank positions actually scanned;
	// every position at or beyond Processed has p_i = 0 by Lemma 2.
	Processed int

	// Rebuilds counts the positions that took the numerically delicate
	// path (own-group mass above the scan point over deconvLimit), where
	// the excluded-group distribution comes from the exclusion tree rather
	// than the deconvolution recurrence. Exposed for the ablation
	// benchmarks.
	Rebuilds int

	// ckpts are periodic snapshots of the scan state (taken every
	// checkpointEvery positions, plus one at exhaustion), recorded so that
	// Resume can replay the scan from the last checkpoint at or below a
	// mutation's dirty-rank watermark instead of from position 0. Sorted
	// by position. See DESIGN.md ("Checkpoints").
	ckpts []checkpoint

	// deconvLim is the deconvolution threshold the pass ran with, kept so
	// Resume replays with the identical numeric path. Zero marks an info
	// that was not produced by the PSR scan (e.g. the naive baseline) and
	// cannot seed a resume.
	deconvLim float64
}

// CanResume reports whether the info carries the scan checkpoints (and
// numeric configuration) Resume needs.
func (ri *RankInfo) CanResume() bool { return ri.deconvLim != 0 }

// HasRho reports whether per-rank probabilities were retained.
func (ri *RankInfo) HasRho() bool { return ri.rho != nil }

// Rho returns rho_i(h), the probability that the alternative at rank
// position i appears at rank h (1 <= h <= K) in a pw-result.
func (ri *RankInfo) Rho(i, h int) float64 {
	if ri.rho == nil || i >= len(ri.rho) || ri.rho[i] == nil {
		return 0
	}
	if h < 1 || h > ri.K {
		return 0
	}
	return ri.rho[i][h-1]
}

// P returns p_i, the top-k probability of the alternative at rank position i.
func (ri *RankInfo) P(i int) float64 {
	if i < 0 || i >= len(ri.TopK) {
		return 0
	}
	return ri.TopK[i]
}

// NonzeroCount returns the number of alternatives with p_i > 0 (the |Z|-ish
// statistic the paper reports: 579 for the synthetic workload vs 75 for MOV
// at k = 15).
func (ri *RankInfo) NonzeroCount() int {
	n := 0
	for _, p := range ri.TopK {
		if p > 0 {
			n++
		}
	}
	return n
}

// SumTopK returns sum_i p_i. When every possible world has at least K
// alternatives (always true here, since nulls are materialized and m >= K
// is required), the sum equals K exactly; exposed for invariant checks.
func (ri *RankInfo) SumTopK() float64 {
	var s float64
	for _, p := range ri.TopK {
		s += p
	}
	return s
}

// TupleP returns p_i for a tuple of the database the info was computed on.
func (ri *RankInfo) TupleP(t *uncertain.Tuple) float64 {
	return ri.P(t.Index())
}
