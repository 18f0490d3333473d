package topkq

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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

// RankProbabilities runs PSR and retains per-rank probabilities rho_i(h)
// as U-kRanks needs them: each block of checkpointEvery positions keeps,
// for every rank, its best rho_i(h) and that position, k cells per block
// beside the top-k probabilities. Time O(k*n), space O(Processed +
// k*Processed/checkpointEvery). The full rho table is built by the
// info's Rho on first use.
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
// positions per block of U-kRanks cells. Spacing trades the replay bound
// (a resume reprocesses at most checkpointEvery positions before the
// watermark) against checkpoint memory (each checkpoint is O(k)); 64
// keeps both negligible next to the O(k * Processed) pass itself. See
// DESIGN.md ("Checkpoints") for the numbers.
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

// Parallel exclusion (DESIGN.md "Parallel exclusion"). The exclusion
// products of one scan are independent of one another once the write log
// is known, so up to maxExclWorkers goroutines compute them, each
// replaying the log into its own tree. A helper's first product rebuilds
// its whole tree and its start waits for an idle core, so a helper takes
// no fewer than minHelperRows rows: a scan needs at least 2·minHelperRows
// exclusion positions before a helper joins it.
const (
	maxExclWorkers = 4
	minHelperRows  = 64
)

// forceExclWorkers, when positive, fixes the exclusion worker count, lets
// a helper take a single row, and starts the caller only once every helper
// has taken its share. Tests set it to prove the bits do not depend on
// the count or the split.
var forceExclWorkers int

// exclWorkers returns the number of workers for r exclusion products: no
// more than could each be handed minHelperRows of them.
func exclWorkers(r int) int {
	if forceExclWorkers > 0 {
		return max(1, min(forceExclWorkers, r))
	}
	return max(1, min(runtime.GOMAXPROCS(0), maxExclWorkers, r/minHelperRows))
}

// exclSched hands the exclusion rows to the workers. Each worker owns a
// run of consecutive rows and computes it front to back, so its tree only
// replays forward. The caller starts with every row; a helper, once it
// runs, takes the back of the longest open run. The caller never waits
// for a helper to start: one that starts after the caller has finished
// its own run takes nothing.
type exclSched struct {
	mu     sync.Mutex
	runs   [maxExclWorkers]exclRun // rows [next, end) of each run; guarded by mu
	open   int                     // runs handed out; guarded by mu
	closed bool                    // no more runs are handed out; guarded by mu
	min    int                     // least rows a helper takes
	busy   sync.WaitGroup          // helpers holding a run
}

type exclRun struct{ next, end int }

// steal opens a run for a helper from the back of the longest open run
// and returns its index, or -1 when that share is under sc.min rows. The
// share is a little over half: the caller, whose run is the front one,
// also runs the F pass, which costs about a quarter of what the
// exclusions cost and overlaps the helpers' rows.
func (sc *exclSched) steal() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.closed {
		return -1
	}
	long := &sc.runs[0]
	for w := 1; w < sc.open; w++ {
		if r := &sc.runs[w]; r.end-r.next > long.end-long.next {
			long = r
		}
	}
	n := long.end - long.next
	share := (n + n/8) / 2
	if share < sc.min {
		return -1
	}
	w := sc.open
	sc.open++
	sc.runs[w] = exclRun{long.end - share, long.end}
	long.end -= share
	sc.busy.Add(1)
	return w
}

// close stops handing out runs.
func (sc *exclSched) close() {
	sc.mu.Lock()
	sc.closed = true
	sc.mu.Unlock()
}

// take returns the next row of run w, or false when the run is done.
func (sc *exclSched) take(w int) (int, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	r := &sc.runs[w]
	if r.next == r.end {
		return 0, false
	}
	r.next++
	return r.next - 1, true
}

// scanState is the live state of one PSR pass. The plan half (q, active,
// slot, fullGroups) is O(active) except slot, a group-indexed lookup of
// length m; the plan buffers and rows are O(positions scanned). States
// are pooled, so a resume that replays a handful of positions on a large
// database allocates neither the O(m) index nor its buffers. The index
// grows geometrically (see newScanState), so a database that gains
// x-tuples reallocates it O(log m) times, not once per scan.
type scanState struct {
	q          []float64 // event probability per active slot
	active     []int     // group of each slot, in first-appearance order
	slot       []int32   // slot[g] = 1 + slot of group g, 0 while g is inactive
	fullGroups int

	// The plan of the positions scanned, indexed from the pass's start:
	// each position's probability e and own-group mass ql before it, and
	// for the positions that take the exclusion path, their position and
	// slot. rows holds the exclusion products, k floats per entry of xpos;
	// ready[j] is set by the worker that wrote row j once it is written.
	e, ql []float64
	xpos  []int32
	xslot []int32
	rows  []float64
	ready []atomic.Bool

	F, G, scratch []float64
}

// statePool recycles scan states. A pooled state's slot index is all
// zeros over its whole capacity: release zeroes exactly the entries active
// names.
var statePool = sync.Pool{New: func() any { return new(scanState) }}

// exclPool recycles the exclusion workers' trees.
var exclPool = sync.Pool{New: func() any { return new(exclusion) }}

// newScanState returns a pooled state for a pass of k over m x-tuples.
// A slot index too small for m is replaced by one with a quarter of m to
// spare, so the next m/4 inserts reuse it.
func newScanState(k, m int) *scanState {
	st := statePool.Get().(*scanState)
	if cap(st.slot) < m {
		st.slot = make([]int32, m, m+m/4)
	}
	st.slot = st.slot[:m]
	st.q = st.q[:0]
	st.active = st.active[:0]
	st.e, st.ql = st.e[:0], st.ql[:0]
	st.xpos, st.xslot = st.xpos[:0], st.xslot[:0]
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
	st.active = append(st.active, g)
	st.slot[g] = int32(len(st.active))
	st.q = append(st.q, q)
}

// plan is the first phase of one position's step: the alternative of
// probability e of group g at rank position i is recorded with its own
// group's mass above the scan point, and the scan point moves below it —
// everything a step does that depends on q alone. It logs the slot write
// in info (and, when it activates the slot, the slot's x-tuple), which is
// all a checkpoint or an exclusion worker needs to rebuild the per-slot
// state later. Above deconvLim the position is queued for the exclusion
// phase.
func (st *scanState) plan(src Source, info *RankInfo, i, g int, e, deconvLim float64) {
	s := int(st.slot[g]) - 1
	ql := 0.0
	if s >= 0 {
		ql = st.q[s]
	}
	if st.queue(i, s, e, ql, deconvLim) {
		info.Rebuilds++
	}
	info.e = append(info.e, e)

	qNew := ql + e
	if qNew > 1 {
		qNew = 1
	}
	if s < 0 {
		s = len(st.active)
		st.activate(g, qNew)
		info.ids = append(info.ids, src.GroupAt(g))
		info.gidx = append(info.gidx, int32(g))
	} else {
		st.q[s] = qNew
	}
	info.wslot = append(info.wslot, int32(s))
	info.wq = append(info.wq, qNew)
	if ql < fullMass && qNew >= fullMass {
		st.fullGroups++
	}
}

// queue appends position i to the plan: its probability e, its own
// group's mass ql above the scan point and, when ql is over deconvLim,
// the exclusion product of slot s it needs. It reports whether it queued
// the product.
func (st *scanState) queue(i, s int, e, ql, deconvLim float64) bool {
	st.e = append(st.e, e)
	st.ql = append(st.ql, ql)
	if ql != 0 && ql > deconvLim {
		st.xpos = append(st.xpos, int32(i))
		st.xslot = append(st.xslot, int32(s))
		return true
	}
	return false
}

// exclusions is the second phase: it starts up to exclWorkers-1 helpers,
// computes the caller's run of the exclusion rows (see exclSched), and
// returns the scheduler once no helper can join any more. Helpers may
// still be writing their rows; the F pass waits for each one it reaches,
// and the scan waits on sc.busy before the state is reused.
func (st *scanState) exclusions(info *RankInfo) *exclSched {
	r := len(st.xpos)
	k := info.K
	if cap(st.rows) < r*k {
		st.rows = make([]float64, r*k)
	}
	st.rows = st.rows[:r*k]
	if cap(st.ready) < r {
		st.ready = make([]atomic.Bool, r)
	}
	st.ready = st.ready[:r]
	clear(st.ready)
	sc := &exclSched{open: 1, min: minHelperRows}
	sc.runs[0].end = r
	w := exclWorkers(r)
	forced := forceExclWorkers > 0
	if forced {
		sc.min = 1
	}
	// A helper that finds the scheduler closed returns without touching
	// st; one that takes a run holds sc.busy until its rows are written.
	var opened sync.WaitGroup
	opened.Add(w - 1)
	for j := 1; j < w; j++ {
		go func() {
			run := sc.steal()
			opened.Done()
			if run >= 0 {
				st.exclude(info, sc, run)
				sc.busy.Done()
			}
		}()
	}
	if forced {
		opened.Wait()
	}
	st.exclude(info, sc, 0)
	sc.close()
	return sc
}

// exclude computes the rows of run w on a pooled tree: it replays info's
// write log up to each row's position and queries the tree there. The
// tree is a pure function of its leaves, so the row holds the bits an
// incrementally maintained tree would give at that position, whichever
// worker computes it.
func (st *scanState) exclude(info *RankInfo, sc *exclSched, w int) {
	ex := exclPool.Get().(*exclusion)
	k := info.K
	ex.reset(k)
	p := 0
	for j, ok := sc.take(w); ok; j, ok = sc.take(w) {
		for x := int(st.xpos[j]); p < x; p++ {
			ex.set(int(info.wslot[p]), info.wq[p])
		}
		ex.exclude(st.rows[j*k:(j+1)*k], int(st.xslot[j]))
		st.ready[j].Store(true)
	}
	exclPool.Put(ex)
}

// fpass is the third phase, the recurrence documented on compute over the
// positions planned from rank position start. Each position's own-group
// exclusion G comes by copy, by deconvolution or from rows, waiting for a
// helper's row until it is written. Its top-k probability is appended to
// info; with keepRho its rank probabilities are folded into its block's
// U-kRanks cells, and with rows non-nil they are written there, K per
// position. Then F moves below it. The plan's checkpoints, from
// info.ckpts[ck] on, get their F as the pass reaches them, the last one
// possibly after the last position. The pass carves its checkpoints' Fs
// from one slab and the cells of the blocks it starts from another, so
// it allocates twice, not once per checkpoint interval.
func (st *scanState) fpass(info *RankInfo, start, ck int, keepRho bool, rows []float64) {
	k := len(st.F)
	deconvLim := info.deconvLim
	slab := make([]float64, (len(info.ckpts)-ck)*k)
	var cells []rankCell
	if keepRho {
		blocks := func(n int) int { return (n + checkpointEvery - 1) / checkpointEvery }
		cells = make([]rankCell, (blocks(start+len(st.e))-blocks(start))*k)
	}
	x := 0 // the next exclusion row
	for d, e := range st.e {
		i := start + d
		if ck < len(info.ckpts) && info.ckpts[ck].pos == i {
			slab = info.ckpts[ck].setF(st.F, slab)
			ck++
		}
		G := st.G
		switch ql := st.ql[d]; {
		case ql == 0:
			copy(G, st.F)
		case ql <= deconvLim:
			deconvolve(G, st.F, ql)
		default:
			for !st.ready[x].Load() {
				runtime.Gosched()
			}
			G = st.rows[x*k : (x+1)*k]
			x++
		}

		var p float64
		for j := 0; j < k; j++ {
			p += G[j]
		}
		p *= e
		if p < 0 {
			p = 0
		} else if p > 1 {
			p = 1
		}
		info.TopK = append(info.TopK, p)
		if keepRho {
			if i%checkpointEvery == 0 {
				info.win = append(info.win, cells[:k:k])
				cells = cells[k:]
			}
			if i < info.nullStart {
				foldWinners(info.win[i/checkpointEvery], e, G, i)
			}
		}
		if rows != nil {
			row := rows[i*k : (i+1)*k]
			for j, g := range G {
				r := e * g
				if r < 0 {
					r = 0
				}
				row[j] = r
			}
		}
		convolve(st.F, G, info.wq[i], st.scratch)
	}
	if ck < len(info.ckpts) && info.ckpts[ck].pos == start+len(st.e) {
		info.ckpts[ck].setF(st.F, slab)
	}
}

// setF records a copy of F as the checkpoint's, carved from the front of
// slab, and returns the rest of slab.
func (c *checkpoint) setF(F, slab []float64) []float64 {
	n := len(F)
	c.F = slab[:n:n]
	copy(c.F, F)
	return slab[n:]
}

// replayRho builds the rank-probability table of the info's processed
// prefix, K rows per position, for Rho. It replays the info's own write
// log (e, wslot, wq) from position 0 through the scan's plan, exclusion
// and F-pass code. A pass from a checkpoint holds the bits a pass from 0
// holds, so every row is the bits the scan computed. No source is read.
func (ri *RankInfo) replayRho() []float64 {
	k := ri.K
	st := newScanState(k, 0)
	defer st.release()
	for i, s := range ri.wslot[:ri.Processed] {
		ql := 0.0
		if int(s) < len(st.q) {
			ql = st.q[s]
		} else {
			st.q = append(st.q, 0)
		}
		st.queue(i, int(s), ri.e[i], ql, ri.deconvLim)
		st.q[s] = ri.wq[i]
	}
	replay := &RankInfo{K: k, deconvLim: ri.deconvLim, wslot: ri.wslot, wq: ri.wq,
		TopK: make([]float64, 0, ri.Processed)}
	sc := st.exclusions(replay)
	rows := make([]float64, ri.Processed*k)
	st.fpass(replay, 0, 0, false, rows)
	sc.busy.Wait()
	return rows
}

// mark records the state as a checkpoint for position pos; fpass fills in
// its F when the pass reaches pos.
func (st *scanState) mark(pos, rebuilds int) checkpoint {
	return checkpoint{
		pos:        pos,
		slots:      len(st.active),
		fullGroups: st.fullGroups,
		rebuilds:   rebuilds,
	}
}

// restore rebuilds a live scan state from the checkpoint against the
// source's current group numbering: it re-resolves the checkpoint's slots
// into info's slot table and activates them in order, then replays
// prior's write log up to pos into their q. The exclusion workers replay
// the same log into their trees, so the restored pass holds the bits the
// scan held at pos. It reports false when a referenced x-tuple no longer
// belongs to the source (it was deleted); that can only happen for a
// checkpoint beyond the mutation's watermark, which Resume never selects
// under the documented contract — the check is a safety net that
// downgrades a contract violation to a fresh scan.
func (c *checkpoint) restore(src Source, prior, info *RankInfo) (*scanState, bool) {
	if !resolve(src, prior, info, c.slots) {
		info.ids = info.ids[:0]
		info.gidx = info.gidx[:0]
		return nil, false
	}
	st := newScanState(prior.K, src.NumGroups())
	copy(st.F, c.F)
	for _, g := range info.gidx {
		st.activate(int(g), 0)
	}
	for p, s := range prior.wslot[:c.pos] {
		st.q[s] = prior.wq[p]
	}
	st.fullGroups = c.fullGroups
	return st, true
}

// resolve appends prior's first slots x-tuples to info's slot table as
// src holds them now: each one's current object and group index (found
// by locate), so a later resume from info searches from current indices.
// It reports false when one of them no longer belongs to src.
func resolve(src Source, prior, info *RankInfo, slots int) bool {
	m := src.NumGroups()
	for s, x := range prior.ids[:slots] {
		g, cur := locate(src, x, int(prior.gidx[s]), m)
		if g < 0 {
			return false
		}
		info.ids = append(info.ids, cur)
		info.gidx = append(info.gidx, int32(g))
	}
	return true
}

// locate returns the index of x in src and src's x-tuple there (matched by
// XTuple.Is), or -1 when src no longer holds it. The search starts at
// hint, the source's group index of x when it was recorded: that still
// names x unless a delete renumbered the survivors since, even if
// copy-on-write replaced the object itself. Deletes shift the survivors
// above them down and inserts append, so the search continues downward
// from there first and finds a renumbered x-tuple after one probe per
// intervening delete.
func locate(src Source, x *uncertain.XTuple, hint, m int) (int, *uncertain.XTuple) {
	if len(x.Tuples) == 0 {
		return -1, nil
	}
	g0 := min(hint, m-1)
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
	// TopK and the U-kRanks cells hold only the processed prefix: Lemma 2
	// usually stops the scan after a small fraction of a large database,
	// and sizing the output to the prefix keeps PSR's allocations
	// O(Processed) rather than O(n).
	info := &RankInfo{K: k, N: src.NumTuples(), deconvLim: deconvLim}
	info.presize(256, 0, keepRho)
	return scanFrom(src, info, newScanState(k, m), 0, keepRho)
}

// scanFrom runs the PSR scan from rank position start with the given
// (fresh or checkpoint-restored) state, appending to info's prefix, in
// three phases that every pass shares:
//
//  1. plan: one walk of src writes the slot-write log, counts the
//     exclusion positions, and applies Lemma 2 — everything that depends
//     on q alone;
//  2. exclusions: the exclusion products of the queued positions, on
//     parallel workers when there are enough of them;
//  3. the F pass: the sequential recurrence over the planned positions,
//     on the caller, which reaches the helpers' rows while they are still
//     being written.
//
// It records a checkpoint every checkpointEvery positions — aligned to
// absolute positions, so resumed passes checkpoint at the same spots a
// fresh pass would — plus one final checkpoint when the scan exhausts the
// source, which is what lets a later Resume extend the scan over tuples
// appended below the old end. Lemma 2 is tested right after each planned
// position, so the scan stops src without asking for the position it
// will not process.
func scanFrom(src Source, info *RankInfo, st *scanState, start int, keepRho bool) (*RankInfo, error) {
	defer st.release()
	k := info.K
	ck := len(info.ckpts)
	i := start
	// Lemma 2: once k x-tuples certainly place an alternative above the
	// scan point, p = 0 for every remaining tuple.
	if st.fullGroups < k {
		for t, g := range src.Ranked(start) {
			if i > start && i%checkpointEvery == 0 {
				info.ckpts = append(info.ckpts, st.mark(i, info.Rebuilds))
			}
			st.plan(src, info, i, g, t.Prob, info.deconvLim)
			i++
			if !t.Null {
				info.nullStart = i
			}
			if st.fullGroups >= k {
				break
			}
		}
	}
	info.Processed = i
	if n := src.NumTuples(); i == n && (len(info.ckpts) == 0 || info.ckpts[len(info.ckpts)-1].pos != n) {
		// The exhaustion checkpoint: the F pass gives it the F below the
		// last position.
		info.ckpts = append(info.ckpts, st.mark(n, info.Rebuilds))
	}
	sc := st.exclusions(info)
	st.fpass(info, start, ck, keepRho, nil)
	sc.busy.Wait()
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
