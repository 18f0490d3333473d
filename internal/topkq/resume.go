package topkq

import (
	"errors"
	"fmt"
)

// ErrCannotResume is returned when the prior RankInfo does not carry the
// scan checkpoints Resume needs (it is nil, zero, or came from the naive
// baseline rather than the PSR scan).
var ErrCannotResume = errors.New("topkq: rank info lacks the scan checkpoints needed to resume")

// Resume recomputes rank-probability information for src after mutations,
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
//     arrays are re-used wholesale, no scanning at all. Only the slot
//     table is checked against src, and re-resolved when a delete
//     renumbered x-tuples of the prefix (see Kept).
//   - otherwise the scan replays from the last checkpoint at or below
//     fromRank, so a mutation at the bottom of the processed prefix costs
//     O(k * checkpointEvery) instead of O(k * Processed), and O(k * Δ)
//     overall for a suffix of length Δ.
//
// Resume never mutates prior; it returns a new RankInfo (sharing prior's
// immutable prefix data where possible). Passing a fromRank that is not a
// valid watermark for the intervening mutations yields undefined results.
func Resume(src Source, prior *RankInfo, fromRank int) (*RankInfo, error) {
	if err := Ready(src); err != nil {
		return nil, err
	}
	if prior == nil || !prior.CanResume() {
		return nil, ErrCannotResume
	}
	k := prior.K
	if k < 1 {
		return nil, fmt.Errorf("k = %d: %w", k, ErrBadK)
	}
	m := src.NumGroups()
	if k > m {
		return nil, fmt.Errorf("k = %d, m = %d: %w", k, m, ErrKTooLarge)
	}
	if fromRank < 0 {
		fromRank = 0
	}
	n := src.NumTuples()
	if prior.Processed < prior.N && fromRank >= prior.Processed {
		// Pure cache hit: the prior scan terminated early at Processed
		// (fullGroups reached k there), every mutation lies at or below
		// that point, and mutations below the termination point cannot
		// change any group's mass above it — so the prefix, the
		// termination point, and the p = 0 suffix all stand.
		if out, ok := pureHit(src, prior, n); ok {
			return out, nil
		}
	}

	target := fromRank
	if target > prior.Processed {
		target = prior.Processed
	}
	keepRho := prior.HasRho()
	// Sized for a rescan as long as the prior's, so the replay appends
	// without regrowing.
	info := &RankInfo{K: k, N: n, deconvLim: prior.deconvLim}
	info.presize(prior.Processed+checkpointEvery, len(prior.ids)+checkpointEvery, keepRho)
	var st *scanState
	start := 0
	used := -1
	// Latest restorable checkpoint at or below the watermark. Falling back
	// to an earlier checkpoint (or to a fresh state at position 0) is
	// always safe — it just replays more.
	for ci := len(prior.ckpts) - 1; ci >= 0; ci-- {
		c := &prior.ckpts[ci]
		if c.pos > target {
			continue
		}
		if s, ok := c.restore(src, prior, info); ok {
			st, start, info.Rebuilds, used = s, c.pos, c.rebuilds, ci
			break
		}
	}
	if st == nil {
		st = newScanState(k, m)
	}
	// The new pass copies the prior's per-position prefix (restore filled
	// the slot table) and shares its immutable parts: the checkpoints at
	// or below the splice point (active lists only grow along the scan, so
	// if the used checkpoint restored, every earlier one does as well) and
	// the full rho blocks below it.
	info.nullStart = min(prior.nullStart, start)
	info.TopK = append(info.TopK, prior.TopK[:start]...)
	info.wslot = append(info.wslot, prior.wslot[:start]...)
	info.wq = append(info.wq, prior.wq[:start]...)
	info.e = append(info.e, prior.e[:start]...)
	info.ckpts = append(info.ckpts, prior.ckpts[:used+1]...)
	if keepRho {
		full := start / checkpointEvery
		info.rho = append(info.rho, prior.rho[:full]...)
		if r := start % checkpointEvery; r != 0 {
			// start is the exhaustion checkpoint at n: the block it falls
			// in is only partly written, and the replay fills the rest, so
			// it is copied rather than shared.
			b := make([]float64, k*checkpointEvery)
			copy(b, prior.rho[full][:r*k])
			info.rho = append(info.rho, b)
		}
	}
	return scanFrom(src, info, st, start, keepRho)
}

// pureHit returns prior's processed prefix as the info of src, which has
// n alternatives. Each slot is probed at its recorded group index
// (XTuple.Is: the pointer, or the identity a copy-on-write clone keeps).
// When every slot is still there, the info shares prior's slot table and
// is Kept; otherwise a delete renumbered x-tuples of the prefix, and the
// slots are re-resolved into a table of their own. It reports false when
// a slot's x-tuple is gone, which the watermark contract rules out;
// Resume then replays from a checkpoint instead.
func pureHit(src Source, prior *RankInfo, n int) (*RankInfo, bool) {
	out := *prior
	out.N = n
	out.kept = slotsHeld(src, prior)
	if !out.kept {
		out.ids, out.gidx = nil, nil
		if !resolve(src, prior, &out, len(prior.ids)) {
			return nil, false
		}
	}
	return &out, true
}

// slotsHeld reports whether src holds every slot's x-tuple of prior at
// the group index prior recorded for it.
func slotsHeld(src Source, prior *RankInfo) bool {
	m := src.NumGroups()
	for s, x := range prior.ids {
		if g := int(prior.gidx[s]); g >= m || !src.GroupAt(g).Is(x) {
			return false
		}
	}
	return true
}
