// Package topkq implements probabilistic top-k query evaluation: the PSR
// rank-probability algorithm (Bernecker et al. [15], as used in Section
// IV-B of the paper) and the three query semantics built on it — U-kRanks
// [10], PT-k [11], and Global-topk [13] — together with brute-force
// possible-world baselines used as ground truth in tests. PSR and each
// semantics are one pass over a Source, an uncertain database's rank order.
package topkq

import (
	"sync"

	"github.com/probdb/topkclean/internal/uncertain"
)

// RankInfo holds the rank probability information of Figure 1(b): for each
// alternative (indexed by its position in the database's rank order) the
// top-k probability p_i and, from RankProbabilities, the rank-h
// probabilities rho_i(h). It is the artifact shared between query
// evaluation and quality computation (Section IV-C).
//
// The scan keeps of rho only what U-kRanks answers with: for every block
// of checkpointEvery positions and every rank h, the block's best rho_i(h)
// and its position. Rho rebuilds the full table on first use by replaying
// the scan's own write log, so it costs nothing unless it is asked for.
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

	// win holds the U-kRanks winners of each block of checkpointEvery
	// positions: cell h-1 of win[b] is the largest rho_i(h) over block
	// b's real positions and the first position that has it (see
	// rankCell). Every processed position's block has its K cells. A
	// full block is never written again, so a resumed info shares the
	// full blocks below its splice point with its prior. Nil when the
	// info was computed with TopKProbabilities (quality evaluation does
	// not need per-rank detail).
	win [][]rankCell

	// dense is the full rank-probability table behind Rho, built on first
	// use. It sits behind a pointer so that the copies pureHit makes of an
	// info share one table and one guard.
	dense *denseRho

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
	// without reading the source (see AltSlot). gidx is in the numbering of
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

// AltSlot returns the probability and scan slot of the alternative at
// processed rank position i. Slots number the prefix's x-tuples in
// first-appearance order, [0, Slots()), and each names one x-tuple: a
// per-x-tuple accumulation over the prefix can key its cells by slot,
// O(Slots()) rather than O(m), and map a slot to its group index with
// SlotGroup. It needs an info from the PSR scan or Resume.
func (ri *RankInfo) AltSlot(i int) (prob float64, slot int) {
	return ri.e[i], int(ri.wslot[i])
}

// Slots returns the number of scan slots: the distinct x-tuples with an
// alternative in the processed prefix.
func (ri *RankInfo) Slots() int { return len(ri.gidx) }

// SlotGroup returns the group index of slot s in the numbering of the
// source the info describes.
func (ri *RankInfo) SlotGroup(s int) int { return int(ri.gidx[s]) }

// rankCell is one rank's U-kRanks winner over a block of positions: the
// largest rank probability p among the block's real positions and the
// first position pos that has it. A cell no position beat is zero, and a
// zero p never wins a rank.
type rankCell struct {
	p   float64
	pos int
}

// denseRho is the lazily built rank-probability table of one info:
// rho_i(h) is rows[i*K+h-1].
type denseRho struct {
	once sync.Once
	rows []float64
}

// HasRho reports whether per-rank probabilities were retained: whether
// the info answers U-kRanks and Rho.
func (ri *RankInfo) HasRho() bool { return ri.win != nil }

// Rho returns rho_i(h), the probability that the alternative at rank
// position i appears at rank h (1 <= h <= K) in a pw-result, or 0 when
// the info has no per-rank probabilities. The first call builds the table
// of every processed position, O(K*Processed) time and space, by
// replaying the scan's own write log; its values are the scan's bits.
// Rho is safe for concurrent use.
func (ri *RankInfo) Rho(i, h int) float64 {
	if ri.win == nil || i < 0 || i >= len(ri.TopK) || h < 1 || h > ri.K {
		return 0
	}
	d := ri.dense
	d.once.Do(func() {
		if d.rows == nil {
			d.rows = ri.replayRho()
		}
	})
	return d.rows[i*ri.K+h-1]
}

// setRho installs rows (K per processed position) as the info's table and
// derives the U-kRanks cells of its real positions from them: for an info
// whose rank probabilities do not come from the scan.
func (ri *RankInfo) setRho(rows []float64) {
	k := ri.K
	ri.dense = &denseRho{rows: rows}
	ri.win = make([][]rankCell, (len(ri.TopK)+checkpointEvery-1)/checkpointEvery)
	cells := make([]rankCell, len(ri.win)*k)
	for b := range ri.win {
		ri.win[b] = cells[b*k : (b+1)*k]
	}
	for i := range ri.nullStart {
		foldWinners(ri.win[i/checkpointEvery], 1, rows[i*k:(i+1)*k], i)
	}
}

// foldWinners folds the rank probabilities of position i, e*G[h-1], into
// its block's cells. A value replaces a cell's only when strictly
// greater, and positions come in ascending order, so each cell keeps the
// first position with the block's largest value: U-kRanks' tie-break.
// Rho clamps a negative e*G[h-1] to 0; only a positive value beats a
// cell, so the clamp cannot change a winner and is left out here.
func foldWinners(cells []rankCell, e float64, G []float64, i int) {
	cells = cells[:len(G)]
	for j, g := range G {
		if r := e * g; r > cells[j].p {
			cells[j] = rankCell{r, i}
		}
	}
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
		ri.win = make([][]rankCell, 0, blocks)
		ri.dense = new(denseRho)
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
