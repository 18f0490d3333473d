package shard

import (
	"container/heap"
	"context"
	"iter"

	"github.com/probdb/topkclean/internal/memo"
	"github.com/probdb/topkclean/internal/topkq"
	"github.com/probdb/topkclean/internal/uncertain"
)

// This file is the merge coordinator: it presents one pinned epoch's
// shard snapshots as a topkq.Source, the global rank order the engine's
// PSR scan and TP pass read. Every shard's real alternatives are already
// in global (score, gseq) order, so a lazy N-way heap over the shard
// cursors' heads yields the global real order for any placement; the
// global null order is the directory's global group order. The heap
// refills only the popped shard, and only on the next pull, so when
// Lemma 2 stops the scan after P positions the shards have been pulled
// P + N - 1 times in total: one head per shard plus one refill per
// position after the first (and in the null phase, one pull per null).
// Every pulled pair is buffered, so the answer passes over the same scan
// replay the buffer and never pull a shard twice.
//
// The coordinator memoizes one evaluation per query size k in the same
// memo the unsharded engine uses (package memo), each over its own merged
// source. A newer epoch's source finds its dirty-rank watermark by
// walking its merged order against the prior source's buffered prefix
// (carryMerged); the resumed scan then replays from the last checkpoint
// below it, exactly like the engine's.

// merged is one scan's view of a pinned epoch as a topkq.Source. Its
// pulls charge each shard's cumulative scan counter; a shard's count
// includes the one extra pull (its first null) that proves its reals are
// exhausted. A merged source is not safe for concurrent extension: the
// scan that fills it runs alone (under its memo entry's lock), and later
// passes read only the prefix it buffered.
type merged struct {
	c       *Cluster
	e       *epoch
	h       *heads // nil until the first pull
	nullIdx int    // next directory entry the null phase visits
	buf     []pair // every pair pulled so far, in global rank order; nil until the first pull
	bufCap  int    // capacity of buf's first allocation
}

// pair is one alternative of the merged order with its global group.
type pair struct {
	t *uncertain.Tuple
	g int
}

// pin returns a fresh merged source over the current epoch. Its buffer
// is allocated on the first pull, so a pin that hits the memo costs one
// small struct.
func (c *Cluster) pin() (*merged, error) {
	return &merged{c: c, e: c.epoch.Load(), bufCap: 256}, nil
}

// Version is the cluster version of the source's epoch.
func (m *merged) Version() uint64 { return m.e.version }

func (m *merged) NumTuples() int { return m.e.n }

func (m *merged) NumGroups() int { return m.e.m }

// GroupAt resolves global group g through the epoch's directory entries.
func (m *merged) GroupAt(g int) *uncertain.XTuple {
	en := m.e.entries.At(g)
	return m.e.snaps[en.shard].GroupAt(int(en.local))
}

// Ranked replays the buffered pairs from pos, then extends the buffer one
// pull at a time for as long as the consumer asks.
func (m *merged) Ranked(pos int) iter.Seq2[*uncertain.Tuple, int] {
	return func(yield func(*uncertain.Tuple, int) bool) {
		for i := pos; m.AtRank(i) != nil; i++ {
			if p := m.buf[i]; !yield(p.t, p.g) {
				return
			}
		}
	}
}

// AtRank returns the alternative at rank position pos, extending the
// buffer up to it, or nil past the end of the merged order.
func (m *merged) AtRank(pos int) *uncertain.Tuple {
	for pos >= len(m.buf) {
		if !m.next() {
			return nil
		}
	}
	return m.buf[pos].t
}

// next appends the next pair of the merged order to the buffer, reporting
// false when the order is exhausted.
func (m *merged) next() bool {
	e, c := m.e, m.c
	h := m.h
	if h == nil {
		m.buf = make([]pair, 0, m.bufCap)
		h = &heads{curs: make([]uncertain.Cursor, len(e.snaps)), tops: make([]*uncertain.Tuple, len(e.snaps))}
		for s, snap := range e.snaps {
			h.curs[s] = snap.CursorAt(0)
			if c.pull(h, s) {
				h.order = append(h.order, s)
			}
		}
		heap.Init(h)
		m.h = h
	} else if len(h.order) > 0 {
		// Refill the shard the previous pull took its tuple from.
		if c.pull(h, h.order[0]) {
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	if len(h.order) > 0 {
		s := h.order[0]
		t := h.tops[s]
		m.buf = append(m.buf, pair{t, int(e.perShard[s].At(t.Group))})
		return true
	}
	for m.nullIdx < e.entries.Len() {
		en := e.entries.At(m.nullIdx)
		gi := m.nullIdx
		m.nullIdx++
		nt := e.snaps[en.shard].GroupAt(int(en.local)).NullTuple()
		if nt == nil {
			continue // group's alternatives sum to 1; no null event
		}
		c.shards[en.shard].scanned.Add(1)
		m.buf = append(m.buf, pair{nt, gi})
		return true
	}
	return false
}

// pull advances shard s's cursor into h.tops[s], counting the pull, and
// reports whether it produced a real alternative (reals come first, so
// the first null or the end means the shard's reals are exhausted).
func (c *Cluster) pull(h *heads, s int) bool {
	t := h.curs[s].Next()
	if t == nil {
		return false
	}
	c.shards[s].scanned.Add(1)
	h.tops[s] = t
	return !t.Null
}

// heads is the merge heap: the shards whose cursor head is a real
// alternative, ordered by the heads' global key (score descending, gseq
// ascending), so order[0] holds the globally next real alternative.
type heads struct {
	curs  []uncertain.Cursor
	tops  []*uncertain.Tuple
	order []int
}

func (h *heads) Len() int { return len(h.order) }

func (h *heads) Less(i, j int) bool {
	a, b := h.tops[h.order[i]], h.tops[h.order[j]]
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Stamp() < b.Stamp()
}

func (h *heads) Swap(i, j int) { h.order[i], h.order[j] = h.order[j], h.order[i] }

func (h *heads) Push(x any) { h.order = append(h.order, x.(int)) }

func (h *heads) Pop() any {
	s := h.order[len(h.order)-1]
	h.order = h.order[:len(h.order)-1]
	return s
}

// carryMerged finds the dirty-rank watermark between two epochs' merged
// orders by walking cur's order against prior's buffered prefix until an
// alternative's *Tuple or its global group differs. A published tuple is
// immutable — every mutation clones what it writes — so an equal pointer
// is an equal score and probability, and the global group pins the
// x-tuple's index; positions up to the first difference therefore hold
// the same scan input in both. The group matters beyond the scan input:
// x-tuple identities (XTuple.Is) are unique only within a shard, so
// topkq.Resume may look a slot up only at the index it recorded, never
// search for it; stopping at the first renumbered group keeps every slot
// a resume restores — and every slot of a pure cache hit — at its
// recorded index. The walk never pulls more than the scan would: a match
// through prior's processed prefix is the pure cache hit, and otherwise
// the resumed scan pulls cur's prefix past the difference anyway.
//
// The minimum of the per-shard DirtySince watermarks would not do: those
// are shard-local rank positions, and a changed alternative in one shard
// can outrank positions another shard contributes to the unchanged global
// prefix, so no mapping of them to global positions bounds the change.
func carryMerged(cur, prior *merged, info *topkq.RankInfo) (wm int, ok bool) {
	cur.bufCap = info.Processed + 1
	n := min(len(prior.buf), info.Processed)
	for i := 0; i < n; i++ {
		if i == len(cur.buf) && !cur.next() || cur.buf[i] != prior.buf[i] {
			return i, true
		}
	}
	return n, true
}

// Answers evaluates all three top-k semantics plus the quality at the
// configured threshold, from one merged scan of one pinned epoch.
func (c *Cluster) Answers(ctx context.Context) (*memo.Result, error) {
	return c.AnswersThreshold(ctx, c.cfg.Threshold)
}

// AnswersThreshold is Answers with an explicit PT-k threshold for this
// call; only the cheap threshold scan differs between calls. The result
// is the unsharded engine's answer bundle, built by the same memo state.
func (c *Cluster) AnswersThreshold(ctx context.Context, threshold float64) (*memo.Result, error) {
	st, err := c.memo.Get(ctx, c.cfg.K, true)
	if err != nil {
		return nil, err
	}
	return st.Result(threshold)
}

// QualityAtVersion returns the PWS-quality of a top-k query for an
// explicit k, with the cluster version it was computed against. Every k
// has its own memoized evaluation, resumed across versions like the
// configured k's.
func (c *Cluster) QualityAtVersion(ctx context.Context, k int) (float64, uint64, error) {
	st, err := c.memo.Get(ctx, k, false)
	if err != nil {
		return 0, 0, err
	}
	return st.Eval.S, st.View.Version(), nil
}

// ShardStat is one shard's serving counters, exposed through the
// daemon's /stats.
type ShardStat struct {
	Shard   int    `json:"shard"`
	Version uint64 `json:"version"` // shard-local database version
	Groups  int    `json:"groups"`  // content groups (sentinel excluded)
	Tuples  int    `json:"tuples"`  // alternatives (sentinel excluded)
	Scanned uint64 `json:"scanned"` // cumulative merge-scan pulls
}

// Stats reports per-shard counters for the current epoch. It reads only
// the published epoch and atomic counters, so it never waits for a commit.
func (c *Cluster) Stats() []ShardStat {
	e := c.epoch.Load()
	out := make([]ShardStat, len(e.snaps))
	for i, snap := range e.snaps {
		out[i] = ShardStat{
			Shard:   i,
			Version: snap.Version(),
			Groups:  snap.NumGroups() - 1,
			Tuples:  snap.NumTuples() - 1,
			Scanned: c.shards[i].scanned.Load(),
		}
	}
	return out
}
