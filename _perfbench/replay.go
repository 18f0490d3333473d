package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"

	topkclean "github.com/probdb/topkclean"
	"github.com/probdb/topkclean/internal/gen"
	"github.com/probdb/topkclean/internal/shard"
	"github.com/probdb/topkclean/internal/store"
	"github.com/probdb/topkclean/internal/topkq"
)

// healthzBody is the daemon's /healthz answer on a leader.
var healthzBody = []byte(`{"role":"leader","status":"ok"}` + "\n")

// plan is everything a run sends and expects: the per-connection request
// sequences with their expected bodies, and the final answers.
type plan struct {
	conns        [][]*request
	finalTopK    []byte
	finalQuality []byte
	lastVersion  uint64
	bodies       map[string][]byte // last answer per path, shared by equal answers
}

func (p *plan) count(measured bool) int {
	n := 0
	for _, c := range p.conns {
		for _, r := range c {
			if r.warm != measured {
				n++
			}
		}
	}
	return n
}

// sizing fixes a run's length from the workload, --seconds and the size.
type sizing struct {
	xtuples int
	warm    int // warm-up cycles (read_hot: random requests per connection)
	cycles  int // measured cycles (read_hot: requests per connection)
	// traced replays answer every request and journal like the daemon,
	// fsync included. The oracle replay of an HTTP run answers /topk and
	// /quality on every sampleEvery-th cycle (read_hot: each distinct
	// request once) — the responses in between are checked for the
	// answers' invariants instead of bytes — and skips the fsync, which
	// cannot change an answer.
	traced bool
}

// sampleEvery is the HTTP runs' answer sampling stride; it is coprime to
// the churn arrival pattern's period of 4, so the byte-checked cycles
// cover every phase of the pattern.
const sampleEvery = 3

func (sz sizing) sample() int {
	if sz.traced {
		return 1
	}
	return sampleEvery
}

// traceSizing is the fixed length of the traced replays: long enough for
// stable medians, short enough that a traced run replays all four
// workloads within its time limit.
func traceSizing(w *workload, tiny bool) sizing {
	if tiny {
		return sizing{xtuples: w.tiny, warm: 4, cycles: 40, traced: true}
	}
	return sizing{xtuples: w.xtuples, warm: 20, cycles: w.traceCycles, traced: true}
}

func sizeFor(w *workload, seconds int, tiny bool) sizing {
	if tiny {
		return sizing{xtuples: w.tiny, warm: 4, cycles: 40}
	}
	n := int(w.rate*float64(seconds)) / w.conns
	warm := 20
	if w.name == "read_hot" {
		warm = 500
	}
	return sizing{xtuples: w.xtuples, warm: warm, cycles: n}
}

// dataSeed is the daemon's -seed, which seeds both the synthetic
// generator and the engine. It is fixed: every run serves the same
// database, and --seed varies only the request sequence, so the spread
// between runs measures the system rather than differences between
// generated datasets.
const dataSeed = 42

// engineLane answers requests in process through the same public entry
// points, in the same order, as the daemon's handlers, recording a span
// around each call. It is the oracle the daemon's responses are compared
// with, byte for byte.
type engineLane struct {
	ctx context.Context
	tr  *tracer
	w   *workload
	db  *topkclean.Database
	eng *topkclean.Engine
	sdb *store.DB
	be  *tracedBackend
	clu *shard.Cluster
	dir string // durable store directory

	requests   int
	processed  int       // positions the latest /topk scan processed
	journaled  int       // ops journaled to the WAL
	scanned    []float64 // sharded: merge pulls per /topk
	opened     []float64 // sharded: shards a /topk pulled from
	candidates []float64 // durable: candidate x-tuples per /plan
	collapses  []float64 // durable: collapses per /apply
}

func newEngineLane(ctx context.Context, w *workload, sz sizing, dir string) (*engineLane, error) {
	l := &engineLane{ctx: ctx, tr: newTracer(), w: w, dir: dir}
	sp := l.tr.begin("gen.synthetic")
	db, err := gen.SyntheticSized(sz.xtuples, dataSeed)
	l.tr.end(sp)
	if err != nil {
		return nil, err
	}
	l.db = db
	info, err := topkq.RankProbabilities(db, queryK)
	if err != nil {
		return nil, err
	}
	l.processed = info.Processed
	switch {
	case w.shards > 1:
		l.clu, err = shard.FromDatabase(db, shard.Config{Shards: w.shards, K: queryK, Threshold: queryThreshold, Rank: db.Rank()})
		if err != nil {
			return nil, err
		}
		if _, err := l.clu.Answers(ctx); err != nil {
			return nil, err
		}
		return l, nil
	case w.durable:
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		b, err := store.OpenBackend("file", dir)
		if err != nil {
			return nil, err
		}
		l.be = &tracedBackend{Backend: b, tr: l.tr}
		opts := []store.Option{store.WithCheckpointEvery(256)}
		if !sz.traced {
			opts = append(opts, store.WithNoFsync())
		}
		l.sdb, err = store.Create(l.be, db, opts...)
		if err != nil {
			b.Close()
			return nil, err
		}
		l.be.walBytes = 0 // the build record is the initial state, not an op
	}
	l.eng, err = topkclean.New(db, topkclean.WithK(queryK), topkclean.WithPTKThreshold(queryThreshold), topkclean.WithSeed(dataSeed))
	if err != nil {
		return nil, err
	}
	_, err = l.eng.Answers(ctx)
	return l, err
}

// close flushes the durable store and drops the lane's databases; the
// spans and counters stay for the metrics.
func (l *engineLane) close() error {
	var err error
	if l.sdb != nil {
		err = l.sdb.Close()
	}
	l.db, l.eng, l.sdb, l.clu = nil, nil, nil, nil
	return err
}

func (l *engineLane) version() uint64 {
	if l.clu != nil {
		return l.clu.Version()
	}
	return l.db.Snapshot().Version()
}

func (l *engineLane) topk(threshold float64) ([]byte, error) {
	l.requests++
	root := l.tr.begin("req.topk")
	defer l.tr.end(root)
	var resp topkResponse
	if l.clu != nil {
		before := l.clu.Stats()
		sp := l.tr.begin("shard.answers")
		r, err := l.clu.AnswersThreshold(l.ctx, threshold)
		l.tr.end(sp)
		if err != nil {
			return nil, err
		}
		l.shardDeltas(before, l.clu.Stats())
		resp = topkBody(r.Version, r.K, r.Threshold, r.Quality, r.UKRanks, r.PTK, r.GlobalTopK)
	} else {
		sp := l.tr.begin("engine.answers")
		r, err := l.eng.AnswersThreshold(l.ctx, threshold)
		l.tr.end(sp)
		if err != nil {
			return nil, err
		}
		l.processed = r.Info.Processed
		resp = topkBody(r.Version, r.K, r.Threshold, r.Quality, r.UKRanks, r.PTK, r.GlobalTopK)
	}
	sp := l.tr.begin("json.topk_encode")
	body, err := json.Marshal(resp)
	l.tr.end(sp)
	return body, err
}

// shardDeltas records how many merge pulls one query made and from how
// many shards.
func (l *engineLane) shardDeltas(before, after []shard.ShardStat) {
	var pulled, opened float64
	for i := range after {
		if d := after[i].Scanned - before[i].Scanned; d > 0 {
			pulled += float64(d)
			opened++
		}
	}
	l.scanned = append(l.scanned, pulled)
	l.opened = append(l.opened, opened)
}

func (l *engineLane) quality(k int) ([]byte, error) {
	l.requests++
	root := l.tr.begin("req.quality")
	defer l.tr.end(root)
	var q float64
	var v uint64
	var err error
	if l.clu != nil {
		sp := l.tr.begin("shard.quality")
		q, v, err = l.clu.QualityAtVersion(l.ctx, k)
		l.tr.end(sp)
	} else {
		sp := l.tr.begin("engine.quality")
		q, v, err = l.eng.QualityAtVersion(l.ctx, k)
		l.tr.end(sp)
	}
	if err != nil {
		return nil, err
	}
	return encodeLine(qualityResponse{Version: v, K: k, Quality: q})
}

func (l *engineLane) mutate(body []byte) ([]byte, error) {
	l.requests++
	root := l.tr.begin("req.mutate")
	defer l.tr.end(root)
	var req mutateRequest
	sp := l.tr.begin("json.mutate_decode")
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	l.tr.end(sp)
	if err != nil {
		return nil, err
	}
	var applied, groups, tuples int
	base := l.version()
	switch {
	case l.clu != nil:
		sp = l.tr.begin("shard.batch")
		err = l.clu.Batch(func(b *shard.Batch) error {
			applied, err = applyOps(b, req.Ops)
			return err
		})
		l.tr.end(sp)
		groups, tuples = l.clu.NumGroups(), l.clu.NumTuples()
	case l.sdb != nil:
		sp = l.tr.begin("store.batch")
		err = l.sdb.Batch(func(b *store.Batch) error {
			applied, err = applyOps(b, req.Ops)
			return err
		})
		l.tr.end(sp)
		l.journaled += applied
		groups, tuples = l.db.NumGroups(), l.db.NumTuples()
	default:
		sp = l.tr.begin("uncertain.commit")
		err = l.db.Batch(func(b *topkclean.Batch) error {
			applied, err = applyOps(b, req.Ops)
			return err
		})
		l.tr.end(sp)
		groups, tuples = l.db.NumGroups(), l.db.NumTuples()
	}
	if err != nil {
		return nil, err
	}
	return encodeLine(mutateResponse{Version: base + 1, OpsApplied: applied, XTuples: groups, Tuples: tuples})
}

// buildSpec is the daemon's wire-spec materialization.
func buildSpec(m int, sj specJSON) topkclean.CleaningSpec {
	cost, scp := sj.Cost, sj.SCProb
	if cost == 0 {
		cost = 1
	}
	if scp == 0 {
		scp = 1
	}
	return topkclean.UniformCleaningSpec(m, cost, scp)
}

func planToWire(p topkclean.CleaningPlan) map[string]int {
	out := make(map[string]int, len(p))
	for g, ops := range p {
		if ops > 0 {
			out[strconv.Itoa(g)] = ops
		}
	}
	return out
}

// planWith is the daemon's Engine.PlanCleaning, split at its two calls.
func (l *engineLane) planWith(planner string, spec topkclean.CleaningSpec, budget int) (topkclean.CleaningPlan, *topkclean.CleaningContext, error) {
	sp := l.tr.begin("cleaning.context")
	cctx, err := l.eng.CleaningContext(l.ctx, spec, budget)
	l.tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	p, err := topkclean.PlannerWithSeed(planner, dataSeed)
	if err != nil {
		return nil, nil, err
	}
	sp = l.tr.begin("cleaning.plan")
	cp, err := p.Plan(l.ctx, cctx)
	l.tr.end(sp)
	return cp, cctx, err
}

func (l *engineLane) plan(body []byte) ([]byte, error) {
	l.requests++
	root := l.tr.begin("req.plan")
	defer l.tr.end(root)
	var req planRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, err
	}
	spec := buildSpec(l.db.Snapshot().NumGroups(), req.Spec)
	cp, cctx, err := l.planWith(req.Planner, spec, req.Budget)
	if err != nil {
		return nil, err
	}
	cands, err := topkclean.CleaningCandidates(cctx)
	if err != nil {
		return nil, err
	}
	l.candidates = append(l.candidates, float64(len(cands)))
	return encodeLine(planResponse{
		Version:             cctx.Version,
		Planner:             req.Planner,
		Budget:              req.Budget,
		Plan:                planToWire(cp),
		Ops:                 cp.Ops(),
		Cost:                cp.TotalCost(spec),
		ExpectedImprovement: topkclean.ExpectedImprovement(cctx, cp),
	})
}

// apply is the daemon's /apply: plan, execute onto the live database,
// journal the collapses.
func (l *engineLane) apply(body []byte) ([]byte, error) {
	l.requests++
	root := l.tr.begin("req.apply")
	defer l.tr.end(root)
	var req applyRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, err
	}
	spec := buildSpec(l.db.Snapshot().NumGroups(), req.Spec)
	cp, cctx, err := l.planWith(req.Planner, spec, req.Budget)
	if err != nil {
		return nil, err
	}
	old := cctx.Eval.S
	sp := l.tr.begin("cleaning.apply")
	out, err := l.eng.ApplyCleaning(l.ctx, cctx, cp, rand.New(rand.NewSource(req.Seed)))
	l.tr.end(sp)
	if err != nil {
		return nil, err
	}
	if l.sdb != nil {
		sp = l.tr.begin("store.journal_cleaning")
		err = l.sdb.JournalCleaning(out.Choices)
		l.tr.end(sp)
		if err != nil {
			return nil, err
		}
		l.journaled += len(out.Choices)
	}
	l.collapses = append(l.collapses, float64(len(out.Choices)))
	resolved := make(map[string]int, len(out.Choices))
	for g, c := range out.Choices {
		resolved[strconv.Itoa(g)] = c
	}
	version := cctx.Version
	if len(out.Choices) > 0 {
		version++
	}
	return encodeLine(applyResponse{
		Version:     version,
		OpsUsed:     out.OpsUsed,
		CostUsed:    out.CostUsed,
		Resolved:    resolved,
		OldQuality:  old,
		NewQuality:  out.NewQuality,
		Improvement: out.Improvement,
	})
}

// encodeLine is the daemon's writeJSON encoding: the value plus a newline.
func encodeLine(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// runtimeStats samples the Go runtime counters a pass's allocation and
// GC metrics are deltas of.
type runtimeStats struct {
	alloc, gcs     uint64
	gcCPU, totalCP float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	return runtimeStats{alloc: ms.TotalAlloc, gcs: uint64(ms.NumGC),
		gcCPU: cpuSamples[0].Value.Float64(), totalCP: cpuSamples[1].Value.Float64()}
}

// passA is the engine lane's run over a workload: it draws the request
// sequence from the seed, answers each request in process, and keeps the
// answers as the expected response bodies.
type passA struct {
	lane         *engineLane
	plan         *plan
	rtBefore     runtimeStats
	rtAfter      runtimeStats
	recoverSecs  float64 // durable: reopening the store from disk
	diskBytes    int64   // durable: store size at the end
	finalTuples  int
	shardTuples  []int
	requestCount int
}

func runPassA(ctx context.Context, w *workload, sz sizing, seed int64, dir string) (*passA, error) {
	lane, err := newEngineLane(ctx, w, sz, filepath.Join(dir, "store"))
	if err != nil {
		return nil, fmt.Errorf("%s: set up: %w", w.name, err)
	}
	pa := &passA{lane: lane, plan: &plan{bodies: map[string][]byte{}}}
	pa.rtBefore = readRuntime()
	if w.name == "read_hot" {
		err = pa.buildHot(seed, sz)
	} else {
		err = pa.buildCycles(seed, sz)
	}
	pa.rtAfter = readRuntime()
	pa.requestCount = lane.requests
	if err != nil {
		lane.close()
		return nil, fmt.Errorf("%s: replay: %w", w.name, err)
	}
	if pa.plan.finalTopK, err = lane.topk(queryThreshold); err != nil {
		lane.close()
		return nil, err
	}
	if pa.plan.finalQuality, err = lane.quality(qualityK); err != nil {
		lane.close()
		return nil, err
	}
	pa.plan.lastVersion = lane.version()
	pa.plan.bodies = nil
	if lane.clu != nil {
		for _, s := range lane.clu.Stats() {
			pa.shardTuples = append(pa.shardTuples, s.Tuples)
		}
		pa.finalTuples = lane.clu.NumTuples()
	} else {
		pa.finalTuples = lane.db.NumTuples()
	}
	if lane.sdb != nil {
		if err := pa.measureStore(); err != nil {
			lane.close()
			return nil, err
		}
	}
	return pa, lane.close()
}

// measureStore times recovering the store from disk while the writer
// still holds it (what a restart after a crash replays), and sizes it.
func (pa *passA) measureStore() error {
	dir := pa.lane.dir
	sp := pa.lane.tr.begin("store.recover")
	b, err := store.OpenBackendReadOnly("file", dir)
	if err != nil {
		pa.lane.tr.end(sp)
		return err
	}
	rec, err := store.Open(b, topkclean.ByFirstAttr)
	pa.lane.tr.end(sp)
	if err != nil {
		b.Close()
		return fmt.Errorf("recover store: %w", err)
	}
	if rec.DB().Version() != pa.lane.db.Version() {
		b.Close()
		return fmt.Errorf("recovered store at v%d, live database at v%d", rec.DB().Version(), pa.lane.db.Version())
	}
	if err := b.Close(); err != nil {
		return err
	}
	span := pa.lane.tr.spans[sp]
	pa.recoverSecs = float64(span.end-span.start) / 1e9
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			pa.diskBytes += info.Size()
		}
	}
	return nil
}

// add appends a request to connection c, answering it in process first;
// every healthEvery-th request of a connection is preceded by a /healthz.
func (pa *passA) add(c int, r *request) {
	for len(pa.plan.conns) <= c {
		pa.plan.conns = append(pa.plan.conns, nil)
	}
	if (len(pa.plan.conns[c])+1)%healthEvery == 0 {
		pa.plan.conns[c] = append(pa.plan.conns[c], &request{kind: kHealthz, path: "/healthz", want: healthzBody, warm: r.warm})
	}
	pa.plan.conns[c] = append(pa.plan.conns[c], r)
}

func (pa *passA) answer(r *request) error {
	var err error
	switch r.kind {
	case kTopK:
		r.want, err = pa.lane.topk(r.thresh)
	case kQuality:
		r.want, err = pa.lane.quality(r.k)
	default:
		err = fmt.Errorf("answer: unexpected %s", kindNames[r.kind])
	}
	// Repeated identical answers (all of read_hot's) share one slice.
	if last, ok := pa.plan.bodies[r.path]; ok && bytes.Equal(last, r.want) {
		r.want = last
	} else {
		pa.plan.bodies[r.path] = r.want
	}
	return err
}

// buildHot draws read_hot's per-connection sequences: every distinct
// request once, a random warm-up, then the measured requests.
func (pa *passA) buildHot(seed int64, sz sizing) error {
	for c := 0; c < pa.lane.w.conns; c++ {
		rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
		var seq []*request
		for _, t := range hotThresholds {
			seq = append(seq, topkRequest(t))
		}
		for _, k := range hotKs {
			seq = append(seq, qualityRequest(k))
		}
		for _, r := range seq {
			r.warm = true
		}
		for i := 0; i < sz.warm+sz.cycles; i++ {
			r := hotRequest(rng)
			r.warm = i < sz.warm
			seq = append(seq, r)
		}
		for _, r := range seq {
			r.version = pa.lane.version()
			// Read-only: a path answered once is answered for good.
			if body, ok := pa.plan.bodies[r.path]; ok && !sz.traced {
				r.want = body
			} else if err := pa.answer(r); err != nil {
				return err
			} else if err := checkAnswer(r, r.want); err != nil {
				return err
			}
			pa.add(c, r)
		}
	}
	return nil
}

// buildCycles draws the mutate/query cycles of the single-connection
// workloads, keeping the shadow model in step with the replayed database.
func (pa *passA) buildCycles(seed int64, sz sizing) error {
	l := pa.lane
	sh := &shadow{rng: rand.New(rand.NewSource(seed*7919 + 1)), arrival: -1}
	for _, x := range l.db.Groups() {
		sh.alts = append(sh.alts, len(x.RealTuples()))
	}
	// Near arrivals land within the first three quarters of the initial
	// scan's processed prefix.
	for pos := 0; pos < l.processed*3/4; pos++ {
		sh.top = append(sh.top, l.db.AtRank(pos).Score)
	}
	sh.base = len(sh.alts)
	for i := 0; i < sz.warm+sz.cycles; i++ {
		warm := i < sz.warm
		var body []byte
		var ops int
		if l.w.durable {
			var err error
			if body, ops, err = sh.durableBody(l.processed, func(pos int) int { return l.db.AtRank(pos).Group }); err != nil {
				return fmt.Errorf("cycle %d: %w", i, err)
			}
		} else {
			body, ops = sh.churnBody()
		}
		want, err := l.mutate(body)
		if err != nil {
			return fmt.Errorf("cycle %d: mutate: %w", i, err)
		}
		if err := checkMutate(want, l.version(), ops); err != nil {
			return fmt.Errorf("cycle %d: %w", i, err)
		}
		pa.add(0, &request{kind: kMutate, path: "/mutate", body: body, want: want, warm: warm})
		answered := i%sz.sample() == sz.sample()-1 || i == sz.warm+sz.cycles-1
		for _, r := range []*request{
			{kind: kTopK, path: "/topk", thresh: queryThreshold, warm: warm, version: l.version()},
			{kind: kQuality, path: "/quality?k=" + strconv.Itoa(qualityK), k: qualityK, warm: warm, version: l.version()},
		} {
			if answered {
				if err := pa.answer(r); err != nil {
					return fmt.Errorf("cycle %d: %w", i, err)
				}
				if err := checkAnswer(r, r.want); err != nil {
					return fmt.Errorf("cycle %d: %w", i, err)
				}
			}
			pa.add(0, r)
		}
		if l.w.durable && i%cleanEvery == cleanEvery-1 {
			if err := pa.clean(sh, seed, i, warm); err != nil {
				return fmt.Errorf("cycle %d: %w", i, err)
			}
		}
	}
	return nil
}

// clean adds one /plan (dp) and one /apply (greedy) and feeds the apply's
// collapses into the shadow model.
func (pa *passA) clean(sh *shadow, seed int64, cycle int, warm bool) error {
	pb, err := json.Marshal(planRequest{Planner: "dp", Budget: planBudget, Spec: specJSON{SCProb: planSCProb}})
	if err != nil {
		return err
	}
	want, err := pa.lane.plan(pb)
	if err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	pa.add(0, &request{kind: kPlan, path: "/plan", body: pb, want: want, warm: warm})
	ab, err := json.Marshal(applyRequest{Planner: "greedy", Budget: applyBudget, Seed: seed*1_000_003 + int64(cycle) + 1})
	if err != nil {
		return err
	}
	want, err = pa.lane.apply(ab)
	if err != nil {
		return fmt.Errorf("apply: %w", err)
	}
	var resp applyResponse
	if err := json.Unmarshal(want, &resp); err != nil {
		return err
	}
	if err := sh.resolve(resp.Resolved); err != nil {
		return err
	}
	pa.add(0, &request{kind: kApply, path: "/apply", body: ab, want: want, warm: warm})
	return nil
}

// checkMutate verifies a /mutate answer: the version advanced by exactly
// one to the database's version and every op sent was applied.
func checkMutate(body []byte, version uint64, ops int) error {
	var r mutateResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if r.Version != version || r.OpsApplied != ops {
		return fmt.Errorf("mutate: version %d ops_applied %d, want version %d ops %d", r.Version, r.OpsApplied, version, ops)
	}
	return nil
}

// checkAnswer verifies the invariants of a /topk or /quality answer: it
// reports the last acknowledged version (and the k asked for); /topk
// returns k U-kRanks entries and PT-k probabilities at or above the
// threshold; the quality is at or below zero.
func checkAnswer(r *request, body []byte) error {
	switch r.kind {
	case kTopK:
		var a topkResponse
		if err := json.Unmarshal(body, &a); err != nil {
			return fmt.Errorf("topk: %w", err)
		}
		switch {
		case a.Version != r.version:
			return fmt.Errorf("topk: version %d, want %d", a.Version, r.version)
		case len(a.UKRanks) != queryK:
			return fmt.Errorf("topk: %d U-kRanks entries, want %d", len(a.UKRanks), queryK)
		case a.Quality > 0:
			return fmt.Errorf("topk: quality %g > 0", a.Quality)
		}
		for _, e := range a.PTK {
			if e.Prob < r.thresh {
				return fmt.Errorf("topk: PT-k entry %s prob %g < threshold %g", e.ID, e.Prob, r.thresh)
			}
		}
	case kQuality:
		var a qualityResponse
		if err := json.Unmarshal(body, &a); err != nil {
			return fmt.Errorf("quality: %w", err)
		}
		if a.Version != r.version || a.K != r.k || a.Quality > 0 {
			return fmt.Errorf("quality: version %d k %d quality %g, want version %d k %d quality <= 0", a.Version, a.K, a.Quality, r.version, r.k)
		}
	}
	return nil
}
