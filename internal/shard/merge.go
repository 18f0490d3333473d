package shard

import (
	"container/heap"
	"context"

	"github.com/probdb/topkclean/internal/quality"
	"github.com/probdb/topkclean/internal/topkq"
	"github.com/probdb/topkclean/internal/uncertain"
)

// This file is the merge coordinator: it presents one epoch's shard
// snapshots as the single global rank stream topkq.ScanStream consumes.
// Every shard's real alternatives are already in global (score, gseq)
// order, so a lazy N-way heap over the shard cursors' heads yields the
// global real order for any placement; the global null order is the
// directory's global group order. The heap refills only the popped shard,
// and only on the next pull, so when Lemma 2 terminates the scan after P
// positions the shards have been pulled at most P + N times in total:
// one head per shard plus one refill per position (and in the null
// phase, one pull per null).

// Result is the sharded engine's answer bundle, mirroring the unsharded
// engine's Result surface the daemon serves.
type Result struct {
	K          int
	Threshold  float64
	Version    uint64
	UKRanks    []topkq.RankedAnswer
	PTK        []topkq.ScoredAnswer
	GlobalTopK []topkq.ScoredAnswer
	Quality    float64
}

// answers is the memoized threshold-independent evaluation of one epoch.
type answers struct {
	version uint64
	si      *topkq.StreamInfo
	uk      []topkq.RankedAnswer
	gtk     []topkq.ScoredAnswer
	quality float64
	err     error
}

// mergeNext returns the lazy pull function over epoch e, charging each
// pull to the owning shard's cumulative scan counter. A shard's count
// includes the one extra pull (its first null) that proves its reals are
// exhausted.
func (c *Cluster) mergeNext(e *epoch) func() (*uncertain.Tuple, int, bool) {
	var h *heads
	nullIdx := 0
	return func() (*uncertain.Tuple, int, bool) {
		if h == nil {
			h = &heads{curs: make([]uncertain.Cursor, len(e.snaps)), tops: make([]*uncertain.Tuple, len(e.snaps))}
			for s, snap := range e.snaps {
				h.curs[s] = snap.CursorAt(0)
				if c.pull(h, s) {
					h.order = append(h.order, s)
				}
			}
			heap.Init(h)
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
			return t, int(e.perShard[s][t.Group]), true
		}
		for nullIdx < len(e.entries) {
			en := e.entries[nullIdx]
			gi := nullIdx
			nullIdx++
			nt := e.snaps[en.shard].GroupAt(int(en.local)).NullTuple()
			if nt == nil {
				continue // group's alternatives sum to 1; no null event
			}
			c.shards[en.shard].scanned.Add(1)
			return nt, gi, true
		}
		return nil, 0, false
	}
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

// evalAt returns the memoized evaluation of epoch e, computing it on
// first use. Single-flight under qmu: concurrent first queries for one
// version compute the scan exactly once.
func (c *Cluster) evalAt(ctx context.Context, e *epoch) (*answers, error) {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	if c.ans != nil && c.ans.version == e.version {
		if c.ans.err != nil {
			return nil, c.ans.err
		}
		return c.ans, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a := &answers{version: e.version}
	a.si, a.err = topkq.ScanStream(c.cfg.K, e.m, e.n, c.mergeNext(e), true)
	if a.err == nil {
		a.uk, a.err = topkq.UKRanksStream(a.si)
	}
	if a.err == nil {
		a.gtk = topkq.GlobalTopKStream(a.si)
		var ev *quality.Evaluation
		ev, a.err = quality.TPFromStream(a.si, e.m, e.n)
		if a.err == nil {
			a.quality = ev.S
		}
	}
	c.ans = a
	if a.err != nil {
		return nil, a.err
	}
	return a, nil
}

// Answers evaluates all three top-k semantics plus the quality at the
// configured threshold, from one merged scan of one pinned epoch.
func (c *Cluster) Answers(ctx context.Context) (*Result, error) {
	return c.AnswersThreshold(ctx, c.cfg.Threshold)
}

// AnswersThreshold is Answers with an explicit PT-k threshold for this
// call; only the cheap threshold scan differs between calls.
func (c *Cluster) AnswersThreshold(ctx context.Context, threshold float64) (*Result, error) {
	e := c.epoch.Load()
	if e == nil {
		return nil, uncertain.ErrNotBuilt
	}
	a, err := c.evalAt(ctx, e)
	if err != nil {
		return nil, err
	}
	return &Result{
		K:          c.cfg.K,
		Threshold:  threshold,
		Version:    e.version,
		UKRanks:    a.uk,
		PTK:        topkq.PTKStream(a.si, threshold),
		GlobalTopK: a.gtk,
		Quality:    a.quality,
	}, nil
}

// QualityAtVersion returns the PWS-quality of a top-k query for an
// explicit k, with the cluster version it was computed against. The
// configured k hits the memoized evaluation; other k run a fresh (rho-
// free) merged scan.
func (c *Cluster) QualityAtVersion(ctx context.Context, k int) (float64, uint64, error) {
	e := c.epoch.Load()
	if e == nil {
		return 0, 0, uncertain.ErrNotBuilt
	}
	if k == c.cfg.K {
		a, err := c.evalAt(ctx, e)
		if err != nil {
			return 0, 0, err
		}
		return a.quality, e.version, nil
	}
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	si, err := topkq.ScanStream(k, e.m, e.n, c.mergeNext(e), false)
	if err != nil {
		return 0, 0, err
	}
	ev, err := quality.TPFromStream(si, e.m, e.n)
	if err != nil {
		return 0, 0, err
	}
	return ev.S, e.version, nil
}

// ShardStat is one shard's serving counters, exposed through the
// daemon's /stats.
type ShardStat struct {
	Shard   int    `json:"shard"`
	Version uint64 `json:"version"` // shard-local database version
	Groups  int    `json:"groups"`  // content groups (sentinel excluded)
	Tuples  int    `json:"tuples"`  // alternatives (sentinel excluded)
	Scanned uint64 `json:"scanned"` // cumulative merge-scan pulls
	Lag     int    `json:"lag"`     // journal records since last checkpoint
}

// Stats reports per-shard counters for the current epoch. It takes the
// writer lock briefly: the store handles are cleared by Close.
func (c *Cluster) Stats() []ShardStat {
	e := c.epoch.Load()
	if e == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ShardStat, len(e.snaps))
	for i, snap := range e.snaps {
		st := ShardStat{
			Shard:   i,
			Version: snap.Version(),
			Groups:  snap.NumGroups() - 1,
			Tuples:  snap.NumTuples() - 1,
			Scanned: c.shards[i].scanned.Load(),
		}
		if sdb := c.shards[i].sdb; sdb != nil {
			st.Lag, _ = sdb.SinceCheckpoint()
		}
		out[i] = st
	}
	return out
}
