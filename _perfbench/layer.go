package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"

	"github.com/probdb/topkclean/internal/cleaning"
	"github.com/probdb/topkclean/internal/gen"
	"github.com/probdb/topkclean/internal/quality"
	"github.com/probdb/topkclean/internal/topkq"
	"github.com/probdb/topkclean/internal/uncertain"
)

// layerLane replays a sequence one layer down from the engine: it makes
// the calls Engine makes for each request — pin a snapshot, ask for the
// dirty-rank watermark, resume the PSR scan, derive the TP evaluation,
// answer the three semantics — with a span (and, for the calls that
// allocate in proportion to the data, an allocation count) around each.
// Its answers must equal the engine lane's byte for byte, which pins the
// replica to the engine's request path.
type layerLane struct {
	ctx  context.Context
	tr   *tracer
	db   *uncertain.Database
	memo map[int]*memoEntry

	// Scan counts of the /topk path, one per version step or fresh scan.
	processed, rescanned, rebuilds []float64
	n                              []float64
	steps, pureHits                int
}

// memoEntry mirrors the engine's per-k memo slot.
type memoEntry struct {
	version uint64
	info    *topkq.RankInfo
	eval    *quality.Evaluation
	full    bool
	answers bool // uk/gtk computed for this state
	uk      []topkq.RankedAnswer
	gtk     []topkq.ScoredAnswer
}

func newLayerLane(ctx context.Context, size int) (*layerLane, error) {
	l := &layerLane{ctx: ctx, tr: newTracer(), memo: make(map[int]*memoEntry)}
	db, err := gen.SyntheticSized(size, dataSeed)
	if err != nil {
		return nil, err
	}
	l.db = db
	// The daemon warms the default database before serving.
	_, err = l.topk(queryThreshold)
	l.tr = newTracer()
	l.processed, l.rescanned, l.rebuilds, l.n = nil, nil, nil, nil
	l.steps, l.pureHits = 0, 0
	return l, err
}

// state mirrors Engine.state: the memoized evaluation for the current
// version and k, migrated across versions by resuming from the watermark.
func (l *layerLane) state(k int, full bool, topk bool) (*memoEntry, *uncertain.Database, error) {
	sp := l.tr.begin("uncertain.pin")
	snap := l.db.Snapshot()
	l.tr.end(sp)
	version := snap.Version()
	ent := l.memo[k]
	if ent != nil && ent.version != version {
		ent = l.migrate(ent, snap, version, topk)
		l.memo[k] = ent
	}
	if ent != nil && (ent.full || !full) {
		return ent, snap, nil
	}
	var info *topkq.RankInfo
	var err error
	sp = l.tr.beginAlloc("topkq.scan")
	if full {
		info, err = topkq.RankProbabilities(snap, k)
	} else {
		info, err = topkq.TopKProbabilities(snap, k)
	}
	l.tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	if topk {
		l.count(info, 0)
	}
	if ent != nil {
		// Light-to-full upgrade keeps the memoized evaluation.
		ent.info, ent.full = info, true
		return ent, snap, nil
	}
	sp = l.tr.beginAlloc("quality.tp")
	ev, err := quality.TPFromInfo(snap, info)
	l.tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	ent = &memoEntry{version: version, info: info, eval: ev, full: full}
	l.memo[k] = ent
	return ent, snap, nil
}

// migrate mirrors the engine's kEntry.migrate and migrateEval; nil means
// the caller recomputes from scratch.
func (l *layerLane) migrate(ent *memoEntry, snap *uncertain.Database, version uint64, topk bool) *memoEntry {
	sp := l.tr.begin("uncertain.dirty_since")
	wm, ok := snap.DirtySince(ent.version)
	l.tr.end(sp)
	if !ok {
		return nil
	}
	prior := ent.info
	sp = l.tr.beginAlloc("topkq.scan")
	info, err := topkq.Resume(snap, prior, wm)
	l.tr.end(sp)
	if err != nil {
		return nil
	}
	pureHit := wm >= prior.Processed && prior.Processed < prior.N
	if topk {
		l.steps++
		if pureHit {
			l.pureHits++
		}
		l.count(info, wm)
	}
	var ev *quality.Evaluation
	if pureHit && snap.GroupIndicesStableSince(ent.version) {
		gain := ent.eval.GroupGain
		if len(gain) != snap.NumGroups() {
			gain = make([]float64, snap.NumGroups())
			copy(gain, ent.eval.GroupGain)
		}
		ev = &quality.Evaluation{S: ent.eval.S, Omega: ent.eval.Omega, GroupGain: gain, Info: info}
	} else {
		sp = l.tr.beginAlloc("quality.tp")
		ev, err = quality.TPFromInfo(snap, info)
		l.tr.end(sp)
		if err != nil {
			return nil
		}
	}
	return &memoEntry{version: version, info: info, eval: ev, full: info.HasRho()}
}

// count records the exact scan counts of one /topk evaluation: positions
// processed (Lemma 2's termination point), positions replayed after the
// watermark, and Poisson-binomial rebuilds.
func (l *layerLane) count(info *topkq.RankInfo, wm int) {
	re := 0
	if wm < info.Processed {
		re = info.Processed - wm
	}
	l.processed = append(l.processed, float64(info.Processed))
	l.rescanned = append(l.rescanned, float64(re))
	l.rebuilds = append(l.rebuilds, float64(info.Rebuilds))
	l.n = append(l.n, float64(info.N))
}

func (l *layerLane) topk(threshold float64) ([]byte, error) {
	root := l.tr.begin("req.topk")
	defer l.tr.end(root)
	ent, snap, err := l.state(queryK, true, true)
	if err != nil {
		return nil, err
	}
	sp := l.tr.begin("topkq.semantics")
	if !ent.answers {
		s := l.tr.begin("topkq.ukranks")
		ent.uk, err = topkq.UKRanks(snap, ent.info)
		l.tr.end(s)
		if err != nil {
			l.tr.end(sp)
			return nil, err
		}
		s = l.tr.begin("topkq.globaltopk")
		ent.gtk = topkq.GlobalTopK(snap, ent.info)
		l.tr.end(s)
		ent.answers = true
	}
	s := l.tr.begin("topkq.ptk")
	ptk := topkq.PTK(snap, ent.info, threshold)
	l.tr.end(s)
	l.tr.end(sp)
	sp = l.tr.begin("json.topk_encode")
	body, err := json.Marshal(topkBody(snap.Version(), queryK, threshold, ent.eval.S, ent.uk, ptk, ent.gtk))
	l.tr.end(sp)
	return body, err
}

func (l *layerLane) quality(k int) ([]byte, error) {
	root := l.tr.begin("req.quality")
	defer l.tr.end(root)
	ent, snap, err := l.state(k, false, false)
	if err != nil {
		return nil, err
	}
	return encodeLine(qualityResponse{Version: snap.Version(), K: k, Quality: ent.eval.S})
}

func (l *layerLane) mutate(body []byte) ([]byte, error) {
	root := l.tr.begin("req.mutate")
	defer l.tr.end(root)
	var req mutateRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, err
	}
	base := l.db.Version()
	var applied int
	var err error
	sp := l.tr.beginAlloc("uncertain.commit")
	err = l.db.Batch(func(b *uncertain.Batch) error {
		applied, err = applyOps(b, req.Ops)
		return err
	})
	l.tr.end(sp)
	if err != nil {
		return nil, err
	}
	return encodeLine(mutateResponse{Version: base + 1, OpsApplied: applied, XTuples: l.db.NumGroups(), Tuples: l.db.NumTuples()})
}

// cleaningContext mirrors Engine.CleaningContext.
func (l *layerLane) cleaningContext(spec cleaning.Spec, budget int) (*cleaning.Context, error) {
	ent, snap, err := l.state(queryK, false, false)
	if err != nil {
		return nil, err
	}
	c := &cleaning.Context{DB: snap, K: queryK, Eval: ent.eval, Spec: spec, Budget: budget, Version: snap.Version()}
	return c, c.Validate()
}

// planFor runs the named deterministic planner the way the registry's
// dp and greedy planners do.
func (l *layerLane) planFor(name string, c *cleaning.Context) (cleaning.Plan, error) {
	switch name {
	case "dp":
		return cleaning.DPContext(l.ctx, c)
	case "greedy":
		return cleaning.GreedyContext(l.ctx, c)
	}
	return nil, fmt.Errorf("layer lane: planner %q not replayed", name)
}

func (l *layerLane) plan(body []byte) ([]byte, error) {
	root := l.tr.begin("req.plan")
	defer l.tr.end(root)
	var req planRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, err
	}
	spec := buildSpec(l.db.Snapshot().NumGroups(), req.Spec)
	c, err := l.cleaningContext(spec, req.Budget)
	if err != nil {
		return nil, err
	}
	p, err := l.planFor(req.Planner, c)
	if err != nil {
		return nil, err
	}
	return encodeLine(planResponse{
		Version: c.Version, Planner: req.Planner, Budget: req.Budget, Plan: planToWire(p),
		Ops: p.Ops(), Cost: p.TotalCost(spec), ExpectedImprovement: cleaning.ExpectedImprovement(c, p),
	})
}

func (l *layerLane) apply(body []byte) ([]byte, error) {
	root := l.tr.begin("req.apply")
	defer l.tr.end(root)
	var req applyRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, err
	}
	spec := buildSpec(l.db.Snapshot().NumGroups(), req.Spec)
	c, err := l.cleaningContext(spec, req.Budget)
	if err != nil {
		return nil, err
	}
	p, err := l.planFor(req.Planner, c)
	if err != nil {
		return nil, err
	}
	old := c.Eval.S
	out, err := cleaning.ExecuteApplyOn(l.db, c, p, rand.New(rand.NewSource(req.Seed)))
	if err != nil {
		return nil, err
	}
	ent, _, err := l.state(queryK, false, false)
	if err != nil {
		return nil, err
	}
	resolved := make(map[string]int, len(out.Choices))
	for g, ch := range out.Choices {
		resolved[fmt.Sprint(g)] = ch
	}
	version := c.Version
	if len(out.Choices) > 0 {
		version++
	}
	return encodeLine(applyResponse{
		Version: version, OpsUsed: out.OpsUsed, CostUsed: out.CostUsed, Resolved: resolved,
		OldQuality: old, NewQuality: ent.eval.S, Improvement: ent.eval.S - old,
	})
}

// runPassB replays a finished sequence through the layer lane and checks
// every answer against the engine lane's.
func runPassB(ctx context.Context, size int, p *plan) (*layerLane, error) {
	l, err := newLayerLane(ctx, size)
	if err != nil {
		return nil, err
	}
	for c, seq := range p.conns {
		for i, r := range seq {
			var got []byte
			switch r.kind {
			case kTopK:
				got, err = l.topk(r.thresh)
			case kQuality:
				got, err = l.quality(r.k)
			case kMutate:
				got, err = l.mutate(r.body)
			case kPlan:
				got, err = l.plan(r.body)
			case kApply:
				got, err = l.apply(r.body)
			case kHealthz:
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("layer lane: conn %d request %d (%s): %w", c, i, r.path, err)
			}
			if !bytes.Equal(got, r.want) {
				return nil, fmt.Errorf("layer lane: conn %d request %d (%s): answer differs from the engine's:\n got %s\nwant %s", c, i, r.path, got, r.want)
			}
		}
	}
	return l, nil
}
