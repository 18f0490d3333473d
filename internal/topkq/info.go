// Package topkq implements probabilistic top-k query evaluation: the PSR
// rank-probability algorithm (Bernecker et al. [15], as used in Section
// IV-B of the paper) and the three query semantics built on it — U-kRanks
// [10], PT-k [11], and Global-topk [13] — together with brute-force
// possible-world baselines used as ground truth in tests. PSR and each
// semantics are one pass over a Source, an uncertain database's rank order.
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

	// rho holds the rank probabilities in blocks of checkpointEvery rows
	// of K floats: rho_i(h) is element (i%checkpointEvery)*K + h-1 of
	// block i/checkpointEvery (see rhoRow). Nil when the info was computed
	// with TopKProbabilities (quality evaluation does not need per-rank
	// detail).
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

	// ckpts are periodic checkpoints of the scan state (taken every
	// checkpointEvery positions, plus one at exhaustion), recorded so that
	// Resume can replay the scan from the last checkpoint at or below a
	// mutation's dirty-rank watermark instead of from position 0. Sorted
	// by position. See DESIGN.md ("Checkpoints").
	ckpts []checkpoint

	// The slot-write log a checkpoint restores from: the scan at position
	// i set slot wslot[i]'s q to wq[i], and ids[s] is the x-tuple of slot
	// s (slots are numbered in first-appearance order). Slots are keyed
	// by x-tuple identity rather than group index: mutations renumber
	// group indices (DeleteXTuple shifts later groups down) and clone
	// x-tuples copy-on-write, but the stable identity XTuple.Is matches on
	// survives both, so the log outlives renumbering and cloning and is
	// re-resolved to current indices at restore time. gidx[s] is the
	// source's group index of slot s when it was recorded: the hint the
	// re-resolution probes first, since a source's group index need not be
	// the x-tuple's own Tuple.Group (the shard merge numbers groups
	// globally, its x-tuples shard-locally).
	wslot []int32
	wq    []float64
	ids   []*uncertain.XTuple
	gidx  []int32

	// e[i] is the probability of the alternative at rank position i, so
	// (e[i], gidx[wslot[i]]) names every processed position's alternative
	// without reading the source (see Alt). gidx is in the numbering of
	// the source the info describes: a scan's restore and a pure-hit
	// Resume both re-resolve the slots whose x-tuples moved. kept marks a
	// pure hit that found every slot at its old index, so the info is its
	// prior's prefix, group indices included (see Kept).
	e    []float64
	kept bool

	// nullStart is the first processed position holding a null
	// alternative, or Processed when none does. Every Source ranks nulls
	// below every real alternative (see Source.Ranked), so the positions
	// below it are exactly the prefix's real alternatives, the only ones
	// a query answers with.
	nullStart int

	// deconvLim is the deconvolution threshold the pass ran with, kept so
	// Resume replays with the identical numeric path. Zero marks an info
	// that was not produced by the PSR scan (e.g. the naive baseline) and
	// cannot seed a resume.
	deconvLim float64
}

// CanResume reports whether the info carries the scan checkpoints (and
// numeric configuration) Resume needs.
func (ri *RankInfo) CanResume() bool { return ri.deconvLim != 0 }

// Kept reports whether the info is a pure-hit Resume that found every
// slot of its prior at its old group index: the prior's processed prefix
// in the prior's numbering, so whatever was derived from that prefix and
// its group indices carries over unchanged.
func (ri *RankInfo) Kept() bool { return ri.kept }

// Alt returns the probability and group index of the alternative at
// processed rank position i, as the source the info was computed on
// yields them. It needs an info from the PSR scan or Resume.
func (ri *RankInfo) Alt(i int) (prob float64, group int) {
	return ri.e[i], int(ri.gidx[ri.wslot[i]])
}

// HasRho reports whether per-rank probabilities were retained.
func (ri *RankInfo) HasRho() bool { return ri.rho != nil }

// Rho returns rho_i(h), the probability that the alternative at rank
// position i appears at rank h (1 <= h <= K) in a pw-result.
func (ri *RankInfo) Rho(i, h int) float64 {
	if ri.rho == nil || i < 0 || i >= len(ri.TopK) || h < 1 || h > ri.K {
		return 0
	}
	return ri.rhoRow(i)[h-1]
}

// rhoRow returns the K rank probabilities of position i.
func (ri *RankInfo) rhoRow(i int) []float64 {
	r := i % checkpointEvery
	return ri.rho[i/checkpointEvery][r*ri.K : (r+1)*ri.K]
}

// presize gives a new info's per-position slices (and, with keepRho, its
// block list) room for n positions and its slot table room for slots, so
// a scan of that length appends without regrowing them.
func (ri *RankInfo) presize(n, slots int, keepRho bool) {
	ri.TopK = make([]float64, 0, n)
	ri.wslot = make([]int32, 0, n)
	ri.wq = make([]float64, 0, n)
	ri.e = make([]float64, 0, n)
	ri.ids = make([]*uncertain.XTuple, 0, slots)
	ri.gidx = make([]int32, 0, slots)
	blocks := n/checkpointEvery + 1
	ri.ckpts = make([]checkpoint, 0, blocks)
	if keepRho {
		ri.rho = make([][]float64, 0, blocks)
	}
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
