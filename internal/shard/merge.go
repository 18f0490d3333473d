package shard

import (
	"context"

	"github.com/probdb/topkclean/internal/quality"
	"github.com/probdb/topkclean/internal/topkq"
	"github.com/probdb/topkclean/internal/uncertain"
)

// This file is the merge coordinator: it presents one epoch's shard
// snapshots as the single global rank stream topkq.ScanStream consumes.
// The range invariant makes the merge trivial — no heap, no k-way
// comparison: the global real order is shard 0's reals, then shard 1's,
// ..., and the global null order is the directory's global group order.
// The stream is pulled lazily, so when Lemma 2 terminates the scan inside
// shard s, the cursors of shards s+1..N-1 are never even opened — the
// early-termination isolation the per-shard scan counters prove in tests.

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
// exhausted; shards the scan never reaches stay at zero.
func (c *Cluster) mergeNext(e *epoch) func() (*uncertain.Tuple, int, bool) {
	var cur uncertain.Cursor
	s, open := 0, false
	nullIdx := 0
	realPhase := true
	return func() (*uncertain.Tuple, int, bool) {
		for realPhase {
			if s >= len(e.snaps) {
				realPhase = false
				break
			}
			if !open {
				cur = e.snaps[s].CursorAt(0)
				open = true
			}
			t := cur.Next()
			if t != nil {
				c.shards[s].scanned.Add(1)
			}
			if t == nil || t.Null {
				s, open = s+1, false // this shard's reals are done
				continue
			}
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
