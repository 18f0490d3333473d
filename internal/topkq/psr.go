package topkq

import (
	"errors"
	"fmt"
	"sync"

	"github.com/probdb/topkclean/internal/uncertain"
)

// ErrKTooLarge is returned when k exceeds the number of x-tuples: with
// fewer than k x-tuples no possible world can produce k alternatives, and
// the paper's query semantics are undefined.
var ErrKTooLarge = errors.New("topkq: k exceeds the number of x-tuples")

// ErrBadK is returned for k < 1.
var ErrBadK = errors.New("topkq: k must be at least 1")

// fullMass is the threshold above which a group's mass above the scan point
// counts as "certainly contributes a higher-ranked alternative" (E_{i,l}=1
// in Lemma 2). Group masses are sums of at most a few thousand float64
// probabilities, so 1e-12 comfortably absorbs the rounding.
const fullMass = 1 - 1e-12

// deconvLimit is the largest own-group mass for which the forward
// deconvolution recurrence is used. The recurrence's error amplification
// per index step is q/(1-q), so at q <= 0.5 the factor is at most 1 and
// rounding stays bounded by ~k ulps regardless of k (verified by the
// convolve/deconvolve round-trip property test). Above the limit the
// excluded-group distribution comes from the exclusion tree (excl.go):
// O(k²·log(active/k) + k²) per position instead of the O(k·active) of a
// from-scratch rebuild, which matters because the path is not rare — on a
// churned 10⁵-x-tuple database it takes a sixth of all positions.
const deconvLimit = 0.5

// RankProbabilities runs PSR and retains per-rank probabilities rho_i(h),
// as needed by U-kRanks. Time O(k*n), space O(k*Processed).
func RankProbabilities(src Source, k int) (*RankInfo, error) {
	return compute(src, k, true, deconvLimit)
}

// TopKProbabilities runs PSR retaining only the top-k probabilities p_i,
// which is all PT-k, Global-topk, and quality evaluation need. Time
// O(k*n), space O(n).
func TopKProbabilities(src Source, k int) (*RankInfo, error) {
	return compute(src, k, false, deconvLimit)
}

// AblationRebuildOnly computes top-k probabilities using only the
// exclusion tree (never the O(k) deconvolution recurrence): every position
// whose own group already has mass above the scan point queries the tree.
// It exists to quantify the design decision documented in DESIGN.md: the
// deconvolution path is what keeps most positions O(k). Results agree
// with TopKProbabilities to rounding; only the cost differs.
func AblationRebuildOnly(db *uncertain.Database, k int) (*RankInfo, error) {
	return compute(db, k, false, -1)
}

// checkpointEvery is the spacing, in rank positions, of the scan-state
// checkpoints compute records into RankInfo for Resume, and the number of
// rho rows per block. Spacing trades the replay bound (a resume
// reprocesses at most checkpointEvery positions before the watermark)
// against checkpoint memory (each checkpoint is O(k)); 64 keeps both
// negligible next to the O(k * Processed) pass itself. See DESIGN.md
// ("Checkpoints") for the numbers.
const checkpointEvery = 64

// checkpoint captures the PSR scan state immediately before processing one
// rank position: F, and the length of the slot table and write log that
// rebuild the per-slot q (see restore). Restoring it and replaying the
// scan from pos yields output bit-identical to a from-scratch pass,
// because every float64 operation from the restored state onward is the
// same.
type checkpoint struct {
	pos        int
	F          []float64 // truncated Poisson-binomial over groups above the scan point
	slots      int       // active slots at pos: RankInfo.ids[:slots]
	fullGroups int
	rebuilds   int // info.Rebuilds as of pos, so a resumed count matches a fresh one
}

// scanState is the live state of the PSR scan loop. Everything in it is
// O(active) except slot, a group-indexed lookup of length m. States are
// pooled, so a resume that replays a handful of positions on a large
// database allocates neither the O(m) index nor the tree's buffers.
type scanState struct {
	ex         exclusion // per-slot q and the own-group exclusion tree
	active     []int     // group of each slot, in first-appearance order
	slot       []int32   // slot[g] = 1 + slot of group g, 0 while g is inactive
	F, G       []float64
	scratch    []float64
	fullGroups int
}

// statePool recycles scan states, following the quality package's
// scratch-pool idiom. A pooled state's slot index is all zeros over its
// whole capacity: release zeroes exactly the entries active names.
var statePool = sync.Pool{New: func() any { return new(scanState) }}

func newScanState(k, m int) *scanState {
	st := statePool.Get().(*scanState)
	if cap(st.slot) < m {
		st.slot = make([]int32, m)
	}
	st.slot = st.slot[:m]
	st.ex.reset(k)
	st.active = st.active[:0]
	st.F = zeroed(st.F, k)
	st.G = zeroed(st.G, k)
	st.scratch = zeroed(st.scratch, k)
	st.F[0] = 1
	st.fullGroups = 0
	return st
}

// zeroed returns a zeroed slice of length n, reusing s when it is large
// enough.
func zeroed(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// release zeroes the slot index and returns the state to the pool; st must
// not be used afterwards.
func (st *scanState) release() {
	for _, g := range st.active {
		st.slot[g] = 0
	}
	statePool.Put(st)
}

// activate gives group g the next slot, with event probability q.
func (st *scanState) activate(g int, q float64) {
	s := len(st.active)
	st.active = append(st.active, g)
	st.slot[g] = int32(s + 1)
	st.ex.set(s, q)
}

// step processes the alternative of probability e of group g at the scan
// point — the recurrence documented on compute — appending its top-k
// probability (and, with keepRho, its rank probabilities) to info, then
// moves the scan point below it. Above deconvLim the own group's event is
// excluded through the exclusion tree instead of by deconvolution. This
// is the whole PSR kernel, and scanFrom is its only caller: a fresh pass,
// a resumed pass and a pass over any Source run the same float64
// operations, so they agree bit for bit.
//
// A step writes exactly one slot's q, and logs that write in info (and,
// when it activates the slot, the slot's x-tuple), which is all a
// checkpoint needs to rebuild the per-slot state later.
func (st *scanState) step(src Source, info *RankInfo, g int, e, deconvLim float64, keepRho bool) {
	k := len(st.G)
	s := int(st.slot[g]) - 1
	ql := 0.0
	if s >= 0 {
		ql = st.ex.q[s]
	}
	switch {
	case ql == 0:
		copy(st.G, st.F)
	case ql <= deconvLim:
		deconvolve(st.G, st.F, ql)
	default:
		st.ex.exclude(st.G, s)
		info.Rebuilds++
	}

	var p float64
	for j := 0; j < k; j++ {
		p += st.G[j]
	}
	p *= e
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	if keepRho {
		// Row i lives in block i/checkpointEvery, so a scan allocates once
		// per checkpoint interval rather than per position. A full block
		// is never written again, which is what lets a resumed info share
		// it with its prior.
		i := len(info.TopK)
		if i%checkpointEvery == 0 {
			info.rho = append(info.rho, make([]float64, k*checkpointEvery))
		}
		row := info.rhoRow(i)
		for j := 0; j < k; j++ {
			r := e * st.G[j]
			if r < 0 {
				r = 0
			}
			row[j] = r
		}
	}
	info.TopK = append(info.TopK, p)

	qNew := ql + e
	if qNew > 1 {
		qNew = 1
	}
	if s < 0 {
		s = len(st.active)
		st.activate(g, qNew)
		info.ids = append(info.ids, src.GroupAt(g))
	} else {
		st.ex.set(s, qNew)
	}
	info.wslot = append(info.wslot, int32(s))
	info.wq = append(info.wq, qNew)
	if ql < fullMass && qNew >= fullMass {
		st.fullGroups++
	}
	convolve(st.F, st.G, qNew, st.scratch)
}

// snapshot records the state as a checkpoint for position pos.
func (st *scanState) snapshot(pos, rebuilds int) checkpoint {
	return checkpoint{
		pos:        pos,
		F:          append([]float64(nil), st.F...),
		slots:      len(st.active),
		fullGroups: st.fullGroups,
		rebuilds:   rebuilds,
	}
}

// restore rebuilds a live scan state from the checkpoint against the
// source's current group numbering: it activates the checkpoint's slots
// from prior's slot table, then replays prior's write log up to pos. The
// exclusion tree is a pure function of its leaves, so the rebuilt state
// holds the same bits as the scan's own state at pos. The slots' current
// x-tuples become info's slot table, so a later resume from info searches
// from current indices. It reports false when a referenced x-tuple no
// longer belongs to the source (it was deleted); that can only happen for
// a checkpoint beyond the mutation's watermark, which Resume never
// selects under the documented contract — the check is a safety net that
// downgrades a contract violation to a fresh scan.
func (c *checkpoint) restore(src Source, prior, info *RankInfo) (*scanState, bool) {
	m := src.NumGroups()
	st := newScanState(prior.K, m)
	copy(st.F, c.F)
	for _, x := range prior.ids[:c.slots] {
		g, cur := locate(src, x, m)
		if g < 0 {
			st.release()
			info.ids = info.ids[:0]
			return nil, false
		}
		st.activate(g, 0)
		info.ids = append(info.ids, cur)
	}
	for p, s := range prior.wslot[:c.pos] {
		st.ex.set(int(s), prior.wq[p])
	}
	st.fullGroups = c.fullGroups
	return st, true
}

// locate returns the index of x in src and src's x-tuple there (matched by
// XTuple.Is), or -1 when src no longer holds it. The search starts at x's
// own group index, frozen when x was recorded: that still names x for a
// database source unless a delete renumbered the survivors since, even if
// copy-on-write replaced the object itself. Deletes shift the survivors
// above them down and inserts append, so the search continues downward
// from there first and finds a renumbered x-tuple after one probe per
// intervening delete.
func locate(src Source, x *uncertain.XTuple, m int) (int, *uncertain.XTuple) {
	if len(x.Tuples) == 0 {
		return -1, nil
	}
	g0 := min(x.Tuples[0].Group, m-1)
	for g := g0; g >= 0; g-- {
		if y := src.GroupAt(g); y.Is(x) {
			return g, y
		}
	}
	for g := max(g0+1, 0); g < m; g++ {
		if y := src.GroupAt(g); y.Is(x) {
			return g, y
		}
	}
	return -1, nil
}

// compute scans the alternatives in descending rank order, maintaining the
// truncated Poisson-binomial distribution
//
//	F[j] = Pr[exactly j x-tuples contribute an alternative ranked above
//	          the scan point],  j = 0..k-1,
//
// over the independent per-x-tuple events "this x-tuple has an alternative
// above the scan point" (event probability q_g = mass of the x-tuple's
// alternatives above the scan point). For the alternative t_i of x-tuple l,
// the own event must be excluded (alternatives of the same x-tuple are
// mutually exclusive):
//
//	G = F deconvolved by Bernoulli(q_l)
//	rho_i(h) = e_i * G[h-1],  p_i = e_i * sum_{j<k} G[j]
//
// and afterwards the scan point moves below t_i, so F becomes G convolved
// with Bernoulli(q_l + e_i).
func compute(src Source, k int, keepRho bool, deconvLim float64) (*RankInfo, error) {
	if err := Ready(src); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("k = %d: %w", k, ErrBadK)
	}
	m := src.NumGroups()
	if k > m {
		return nil, fmt.Errorf("k = %d, m = %d: %w", k, m, ErrKTooLarge)
	}
	// TopK and rho hold only the processed prefix: Lemma 2 usually stops
	// the scan after a small fraction of a large database, and sizing the
	// output to the prefix keeps PSR's cost O(k * Processed) rather than
	// O(n) in allocations.
	info := &RankInfo{K: k, N: src.NumTuples(), deconvLim: deconvLim}
	info.presize(256, 0, keepRho)
	return scanFrom(src, info, newScanState(k, m), 0, keepRho)
}

// scanFrom runs the PSR scan loop from rank position start with the given
// (fresh or checkpoint-restored) state, appending to info's prefix. It
// records a checkpoint every checkpointEvery positions — aligned to
// absolute positions, so resumed passes checkpoint at the same spots a
// fresh pass would — plus one final checkpoint when the scan exhausts the
// source, which is what lets a later Resume extend the scan over tuples
// appended below the old end. Lemma 2 is tested right after each step,
// so the scan stops src without asking for the position it will not
// process.
func scanFrom(src Source, info *RankInfo, st *scanState, start int, keepRho bool) (*RankInfo, error) {
	defer st.release()
	k := info.K
	deconvLim := info.deconvLim
	i := start
	// Lemma 2: once k x-tuples certainly place an alternative above the
	// scan point, p = 0 for every remaining tuple.
	if st.fullGroups < k {
		for t, g := range src.Ranked(start) {
			if i > start && i%checkpointEvery == 0 {
				info.ckpts = append(info.ckpts, st.snapshot(i, info.Rebuilds))
			}
			st.step(src, info, g, t.Prob, deconvLim, keepRho)
			i++
			if st.fullGroups >= k {
				break
			}
		}
	}
	info.Processed = i
	if n := src.NumTuples(); i == n && (len(info.ckpts) == 0 || info.ckpts[len(info.ckpts)-1].pos != n) {
		info.ckpts = append(info.ckpts, st.snapshot(n, info.Rebuilds))
	}
	return info, nil
}

// deconvolve computes G such that F = G convolved with Bernoulli(q):
// G[j] = (F[j] - q*G[j-1]) / (1-q). Tiny negative entries produced by
// cancellation are clamped to zero.
func deconvolve(G, F []float64, q float64) {
	inv := 1 / (1 - q)
	prev := 0.0
	for j := range F {
		g := (F[j] - q*prev) * inv
		if g < 0 {
			g = 0
		}
		G[j] = g
		prev = g
	}
}

// convolve computes F = G convolved with Bernoulli(q), truncated to len(G):
// F[j] = (1-q)*G[j] + q*G[j-1]. scratch must have the same length and is
// used to allow F and G to alias.
func convolve(F, G []float64, q float64, scratch []float64) {
	p := 1 - q
	prev := 0.0
	for j := range G {
		scratch[j] = p*G[j] + q*prev
		prev = G[j]
	}
	copy(F, scratch)
}
