package topkclean

import (
	"context"
	"math/rand"
	"sync"

	"github.com/probdb/topkclean/internal/cleaning"
	"github.com/probdb/topkclean/internal/quality"
	"github.com/probdb/topkclean/internal/topkq"
	"github.com/probdb/topkclean/internal/uncertain"
)

// newRand builds the deterministic random source the engine hands to
// simulation helpers.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Engine is a query session over one database: it runs the PSR
// rank-probability pass and the TP quality evaluation once per k and
// memoizes the result, so Answers, Quality, and PlanCleaning all reuse a
// single pass (the computation sharing of Section IV-C — the paper
// measures the quality overhead at ~6% of query time this way; an Engine
// extends that sharing across every query of a session).
//
// Construct with New and functional options:
//
//	eng, err := topkclean.New(db, topkclean.WithK(15), topkclean.WithPTKThreshold(0.1))
//	res, err := eng.Answers(ctx)
//	plan, cctx, err := eng.PlanCleaning(ctx, "greedy", spec, budget)
//
// The engine is version-aware and delta-aware: memoized state carries the
// database version it was computed against, so mutating the database
// (InsertXTuple, DeleteXTuple, Reweight, Collapse, a Batch, or
// Engine.ApplyCleaning) does not require throwing the engine away. On the
// next query the engine asks Database.DirtySince for the mutations' merged
// dirty-rank watermark and, instead of recomputing the PSR pass, resumes
// it from the last checkpoint below the watermark (topkq.Resume) — a
// mutation at the bottom of the ranking costs O(k·Δ) rather than O(k·n),
// and one strictly below the scan's early-termination point costs nothing
// at all. The resumed state is bit-identical to a recomputation.
//
// An Engine is safe for concurrent use, and queries run fully concurrently
// with database mutations: every query pins an immutable snapshot epoch
// (Database.Snapshot) and reads only through it, while mutations serialize
// on the database's writer lock and publish a new epoch atomically at
// commit. A query therefore always answers against exactly one committed
// version — it never blocks on a writer, and never observes a mutation's
// intermediate state or renumbering. Result.Version reports which version
// a result describes.
type Engine struct {
	db  *Database
	cfg config

	mu     sync.Mutex      // guards the states map itself
	states map[int]*kEntry // memoized shared state per query size k
}

// kEntry is one k's memoization slot. Its own mutex makes the first
// computation single-flight per k while letting passes for distinct k run
// concurrently. Keying the map by k alone (the version lives inside the
// entry and is migrated in place on every version change) keeps the map's
// size bounded by the number of distinct query sizes ever asked for, no
// matter how many mutations a session spans.
type kEntry struct {
	mu      sync.Mutex
	st      *evalState // nil until computed; guarded by mu
	version uint64     // database version st was computed against; guarded by mu
}

// evalState is the shared per-(db, k) computation: one PSR pass and the TP
// evaluation derived from it. full records whether the pass kept the
// per-rank probabilities U-kRanks needs; quality and cleaning only need
// the lighter top-k retention, so the engine upgrades lazily. The
// threshold-independent query answers (U-kRanks, Global-topk) are cached
// on first use too — only the cheap PT-k threshold scan runs per call.
type evalState struct {
	info *RankInfo
	eval *QualityEvaluation
	full bool

	ansOnce sync.Once
	uk      []RankedAnswer
	gtk     []ScoredAnswer
	ansErr  error
}

// New builds an Engine over db. Options configure the query size k, the
// PT-k threshold, the ranking function (for an unbuilt database), the
// simulation parallelism, and the random seed; defaults are the paper's
// (k = 15, threshold 0.1). The database must already be built unless
// WithRankFunc is given, in which case New builds it.
func New(db *Database, opts ...Option) (*Engine, error) {
	if db == nil {
		return nil, ErrNilDatabase
	}
	cfg := defaultConfig()
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.rankSet {
		if db.Built() {
			return nil, ErrRankOnBuilt
		}
		if err := db.Build(cfg.rank); err != nil {
			return nil, err
		}
	}
	if !db.Built() {
		return nil, uncertain.ErrNotBuilt
	}
	return &Engine{db: db, cfg: cfg, states: make(map[int]*kEntry)}, nil
}

// DB returns the engine's database.
func (e *Engine) DB() *Database { return e.db }

// K returns the configured query size.
func (e *Engine) K() int { return e.cfg.k }

// Threshold returns the configured PT-k probability threshold.
func (e *Engine) Threshold() float64 { return e.cfg.threshold }

// Invalidate drops all memoized rank/quality state. Normal use never
// requires it: database mutations bump the version counter, and the next
// query resumes or recomputes the memoized state for the new version. It
// remains for callers that want to recompute from scratch (e.g. to
// re-measure).
func (e *Engine) Invalidate() {
	e.mu.Lock()
	e.states = make(map[int]*kEntry)
	e.mu.Unlock()
}

// state returns the memoized evaluation for (current db version, k) —
// together with the snapshot epoch it was computed against — computing it
// on first use. The per-entry mutex is a single-flight guard: concurrent
// first calls for the same k compute the pass exactly once, while passes
// for distinct k proceed in parallel. needFull requests the full rank-h
// probabilities (U-kRanks); quality and cleaning get by with the cheaper
// top-k-only retention, and a light state is upgraded in place the first
// time a full one is needed — reusing the already-memoized quality
// evaluation, whose top-k probabilities are identical in both passes, so
// Quality/PlanCleaning keep the identical pointer across the upgrade.
//
// The snapshot is pinned under the entry lock, so every computation — and
// every answer derived from the returned state — reads one committed
// epoch, however many mutations commit meanwhile; entry versions advance
// monotonically because epochs publish monotonically and pins are ordered
// by the lock. Mutation-owned state never leaks in: the memo belongs to
// the snapshot it was computed on (evalState holds only epoch-frozen
// data), which is what makes queries safe to run concurrently with
// writers.
//
// When the database version moved past the entry, the entry is not
// dropped: migrate resumes the memoized PSR pass from the mutations'
// dirty-rank watermark (keeping it wholesale when every mutation lies
// below the scan's early-termination point) and re-derives the TP
// evaluation from the resumed info. Only when the watermark log cannot
// answer — or the resume fails (e.g. k now exceeds the x-tuple count) —
// does the entry fall back to a from-scratch recomputation.
func (e *Engine) state(ctx context.Context, k int, needFull bool) (*evalState, *Database, error) {
	e.mu.Lock()
	ent, ok := e.states[k]
	if !ok {
		ent = &kEntry{}
		e.states[k] = ent
	}
	e.mu.Unlock()

	ent.mu.Lock()
	defer ent.mu.Unlock()
	snap := e.db.Snapshot()
	if snap == nil {
		return nil, nil, uncertain.ErrNotBuilt
	}
	version := snap.Version()
	if ent.st != nil && ent.version != version {
		ent.migrate(snap, version)
	}
	if ent.st != nil && (ent.st.full || !needFull) {
		return ent.st, snap, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	var info *topkq.RankInfo
	var err error
	if needFull {
		info, err = topkq.RankProbabilities(snap, k)
	} else {
		info, err = topkq.TopKProbabilities(snap, k)
	}
	if err != nil {
		return nil, nil, err
	}
	if ent.st != nil {
		// Light → full upgrade: the top-k probabilities (and hence the TP
		// evaluation) are identical in both passes, so the memoized eval —
		// and any pointers callers already hold to it — stays valid; only
		// the rank info is replaced. The eval keeps pointing at the light
		// info it was computed from (repointing it could race with a
		// concurrent planner reading Eval.Info; both infos agree on every
		// top-k probability).
		ent.st.info = info
		ent.st.full = true
		return ent.st, snap, nil
	}
	ev, err := quality.TPFromInfo(snap, info)
	if err != nil {
		return nil, nil, err
	}
	ent.st = &evalState{info: info, eval: ev, full: needFull}
	ent.version = version
	return ent.st, snap, nil
}

// migrate carries a memoized entry across database versions, reading only
// the pinned snapshot epoch for the new version: it asks the snapshot's
// DirtySince for the merged dirty-rank watermark of the intervening
// mutations, resumes the PSR pass from it, and re-derives the TP
// evaluation from the resumed info. The result is a new evalState (old
// Results keep pointing at the superseded, still-consistent state), bit-
// identical to what a from-scratch pass would memoize. On any failure the
// entry is cleared and the caller recomputes from scratch.
func (ent *kEntry) migrate(db *Database, version uint64) {
	defer func() { ent.version = version }()
	wm, ok := db.DirtySince(ent.version)
	if !ok {
		ent.st = nil
		return
	}
	prior := ent.st.info
	info, err := topkq.Resume(db, prior, wm)
	if err != nil {
		ent.st = nil
		return
	}
	ev, err := ent.migrateEval(db, prior, info, wm)
	if err != nil {
		ent.st = nil
		return
	}
	ent.st = &evalState{info: info, eval: ev, full: info.HasRho()}
}

// migrateEval carries the TP evaluation across the same version step. In
// the pure-cache-hit case — every mutation at or below the early-
// termination point — with stable group numbering, the evaluation is
// reusable outright: S, Omega and the sparse group gains are computed from
// the unchanged prefix alone, and any group appended or dropped by such
// mutations has all its alternatives below the termination point and
// hence zero gain, so it has no gain entry to add or remove. Carry shares
// the gains in O(1) whatever the group count did. Otherwise the evaluation
// is re-derived from the resumed info (still bit-identical to a
// from-scratch pass, just costlier).
func (ent *kEntry) migrateEval(db *Database, prior, info *topkq.RankInfo, wm int) (*quality.Evaluation, error) {
	pureHit := wm >= prior.Processed && prior.Processed < prior.N
	if pureHit && db.GroupIndicesStableSince(ent.version) {
		return ent.st.eval.Carry(info, db.NumGroups()), nil
	}
	return quality.TPFromInfo(db, info)
}

// RankInfo returns the engine's shared rank-probability information (the
// full PSR pass), computing and memoizing it on first use. Subsequent
// calls — and Answers, Quality, and PlanCleaning — reuse the identical
// pointer. (Quality/cleaning-only sessions that never ask for rank-h
// probabilities get a lighter top-k-only pass until one is needed.)
func (e *Engine) RankInfo(ctx context.Context) (*RankInfo, error) {
	st, _, err := e.state(ctx, e.cfg.k, true)
	if err != nil {
		return nil, err
	}
	return st.info, nil
}

// Quality returns the PWS-quality of the top-k query (TP algorithm,
// Theorem 1). The score is <= 0; 0 means the answer is certain.
func (e *Engine) Quality(ctx context.Context) (float64, error) {
	st, _, err := e.state(ctx, e.cfg.k, false)
	if err != nil {
		return 0, err
	}
	return st.eval.S, nil
}

// QualityAt returns the PWS-quality of a top-k query for an explicit k,
// memoized independently of the engine's configured k. Useful for
// quality-vs-k sweeps over one session.
func (e *Engine) QualityAt(ctx context.Context, k int) (float64, error) {
	q, _, err := e.QualityAtVersion(ctx, k)
	return q, err
}

// QualityAtVersion is QualityAt reporting also the database version
// (snapshot epoch) the score was computed against, so serving layers can
// label the answer with the exact version it describes instead of
// re-reading a possibly newer version afterwards.
func (e *Engine) QualityAtVersion(ctx context.Context, k int) (quality float64, version uint64, err error) {
	st, snap, err := e.state(ctx, k, false)
	if err != nil {
		return 0, 0, err
	}
	return st.eval.S, snap.Version(), nil
}

// QualityEvaluation returns the full TP evaluation (score, per-tuple
// weights, per-x-tuple gains) that drives the cleaning planners.
func (e *Engine) QualityEvaluation(ctx context.Context) (*QualityEvaluation, error) {
	st, _, err := e.state(ctx, e.cfg.k, false)
	if err != nil {
		return nil, err
	}
	return st.eval, nil
}

// Answers evaluates all three probabilistic top-k semantics (U-kRanks,
// PT-k at the configured threshold, Global-topk) plus the PWS-quality,
// all from the engine's one memoized PSR pass against one pinned snapshot
// epoch (Result.Version says which). The threshold-independent answers
// are memoized too, so repeated calls only re-run the PT-k threshold
// scan. The returned Result shares the session's cached slices; treat its
// contents as read-only.
func (e *Engine) Answers(ctx context.Context) (*Result, error) {
	return e.AnswersThreshold(ctx, e.cfg.threshold)
}

// AnswersThreshold is Answers with an explicit PT-k threshold for this
// call only, sharing the same memoized pass: only the cheap PT-k
// threshold scan differs between calls. Serving layers use it to honour a
// per-request threshold without building one engine per threshold. Unlike
// WithPTKThreshold, the threshold is not range-validated; out-of-range
// values simply give an empty or complete PT-k answer.
func (e *Engine) AnswersThreshold(ctx context.Context, threshold float64) (*Result, error) {
	st, snap, err := e.state(ctx, e.cfg.k, true)
	if err != nil {
		return nil, err
	}
	// snap is the epoch st was computed on (state pins them together), so
	// every answer below reads the exact database state of one version.
	st.ansOnce.Do(func() {
		st.uk, st.ansErr = topkq.UKRanks(snap, st.info)
		if st.ansErr == nil {
			st.gtk = topkq.GlobalTopK(snap, st.info)
		}
	})
	if st.ansErr != nil {
		return nil, st.ansErr
	}
	return &Result{
		K:          e.cfg.k,
		Threshold:  threshold,
		Version:    snap.Version(),
		UKRanks:    st.uk,
		PTK:        topkq.PTK(snap, st.info, threshold),
		GlobalTopK: st.gtk,
		Quality:    st.eval.S,
		Eval:       st.eval,
		Info:       st.info,
	}, nil
}

// CleaningContext assembles a planning context from the engine's memoized
// quality evaluation — no PSR or TP recomputation — with the given
// cleaning spec and budget. The context reads from the pinned snapshot
// epoch the evaluation was computed on, so planning runs safely while
// mutations continue, and it is stamped with that version; ApplyCleaning
// refuses contexts whose version a later mutation has left behind.
func (e *Engine) CleaningContext(ctx context.Context, spec CleaningSpec, budget int) (*CleaningContext, error) {
	st, snap, err := e.state(ctx, e.cfg.k, false)
	if err != nil {
		return nil, err
	}
	c := &cleaning.Context{DB: snap, K: e.cfg.k, Eval: st.eval, Spec: spec, Budget: budget, Version: snap.Version()}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// ApplyCleaning executes a cleaning plan onto the live database: it
// simulates the cleaning agent (the same draws Execute would make from
// rng), collapses each successfully cleaned x-tuple to its resolved
// alternative in place — bumping the database version — and re-evaluates
// the query quality at the new version through the engine's memoized state,
// closing the paper's clean→re-query loop in one session. The returned
// outcome's DB is the engine's own (now mutated) database, and NewQuality
// and Improvement reflect the re-evaluation.
//
// The context must come from this engine's CleaningContext (it may read
// from a pinned snapshot; the mutations land on the live database the
// snapshot came from) at the current database version; a context planned
// before a later — possibly concurrent — mutation fails with
// ErrStaleCleaningContext before anything is mutated, with the
// authoritative check made under the writer lock. ApplyCleaning may run
// concurrently with queries: like every mutation it commits a new epoch
// atomically, and in-flight queries keep reading their pinned snapshots.
// A nil rng derives one from the engine seed.
//
// If the re-evaluation itself fails (e.g. the context is cancelled after
// the mutations were applied), the outcome is returned alongside the error
// with NewQuality and Improvement left zero: the cleaning has happened and
// the caller can still see what was executed.
func (e *Engine) ApplyCleaning(ctx context.Context, c *CleaningContext, plan CleaningPlan, rng *rand.Rand) (*CleaningOutcome, error) {
	if c == nil || c.DB == nil || c.DB.Origin() != e.db {
		return nil, ErrForeignContext
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if rng == nil {
		// seed+2 decorrelates the agent's draws from the randomized
		// planners' stream (seeded with the engine seed) and from the
		// Monte-Carlo verification streams (seed+1): replaying the draws
		// that selected the plan would bias the realized improvement.
		rng = newRand(e.cfg.seed + 2)
	}
	out, err := cleaning.ExecuteApplyOn(e.db, c, plan, rng)
	if err != nil {
		return nil, err
	}
	before := c.Eval.S       // validated non-nil by ExecuteApply, unchanged by the mutations
	q, err := e.Quality(ctx) // fresh state at the bumped version, memoized for later queries
	if err != nil {
		// The mutations are already applied; hand the outcome back with
		// the error so the executed work is not unreportable.
		return out, err
	}
	out.NewQuality = q
	out.Improvement = q - before
	return out, nil
}

// PlanCleaning selects the x-tuples to clean and the number of operations
// for each, maximizing the expected quality improvement within budget,
// using the planner registered under the given name ("dp", "greedy",
// "randp", "randu", or any planner added with RegisterPlanner). The
// engine's seed drives randomized planners, so repeated calls are
// reproducible — two PlanCleaning("randu", ...) calls on one engine return
// the identical plan; use PlannerWithSeed with varying seeds for
// independent random draws. It returns the plan together with the
// planning context it was built against, so callers can score it
// (ExpectedImprovement) or execute it (ExecuteCleaning) without
// re-evaluating anything.
func (e *Engine) PlanCleaning(ctx context.Context, planner string, spec CleaningSpec, budget int) (CleaningPlan, *CleaningContext, error) {
	c, err := e.CleaningContext(ctx, spec, budget)
	if err != nil {
		return nil, nil, err
	}
	p, err := PlannerWithSeed(planner, e.cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	plan, err := p.Plan(ctx, c)
	if err != nil {
		return nil, nil, err
	}
	return plan, c, nil
}

// VerifyImprovement cross-checks Theorem 2's closed-form expected
// improvement for a plan against a Monte-Carlo simulation of the cleaning
// agent run on the engine's configured parallelism, returning
// (analytical, simulated).
func (e *Engine) VerifyImprovement(ctx context.Context, c *CleaningContext, plan CleaningPlan, trials int) (analytical, simulated float64, err error) {
	analytical = cleaning.ExpectedImprovement(c, plan)
	// seed+1 decorrelates the verification streams from the randomized
	// planners' stream (seeded with the engine seed): replaying the draws
	// that selected a plan would bias the very cross-check this provides.
	simulated, err = cleaning.MonteCarloImprovementParallelContext(ctx, c, plan, e.cfg.seed+1, trials, e.cfg.workers())
	return analytical, simulated, err
}

// AdaptiveCleaning runs the multi-round re-planning loop (plan, execute,
// feed refunded budget into fresh plans) with the named planner, for up to
// maxRounds rounds. The planner must be deterministic (not a
// SeedablePlanner): re-planning rounds would otherwise replay one random
// stream rather than draw independently. rng drives the simulated cleaning
// agent; pass nil to derive one from the engine seed (note that repeated
// nil-rng calls then replay the identical stream — supply distinct rngs
// for independent simulated sessions).
func (e *Engine) AdaptiveCleaning(ctx context.Context, c *CleaningContext, planner string, rng *rand.Rand, maxRounds int) (*AdaptiveOutcome, error) {
	p, err := deterministicPlanner(planner, "AdaptiveCleaning")
	if err != nil {
		return nil, err
	}
	if rng == nil {
		rng = newRand(e.cfg.seed)
	}
	return cleaning.AdaptiveExecuteContext(ctx, c, p.Plan, rng, maxRounds)
}

// MinBudgetForTarget returns the smallest budget whose expected
// post-cleaning quality (under the named planner) reaches target, with
// the corresponding plan, searching budgets up to maxBudget. The planner
// must be deterministic (not a SeedablePlanner): the doubling/binary
// search is only correct when expected improvement is non-decreasing in
// the budget, which a random planner does not guarantee.
func (e *Engine) MinBudgetForTarget(ctx context.Context, c *CleaningContext, target float64, maxBudget int, planner string) (int, CleaningPlan, error) {
	p, err := deterministicPlanner(planner, "MinBudgetForTarget")
	if err != nil {
		return 0, nil, err
	}
	return cleaning.MinBudgetForTargetContext(ctx, c, target, maxBudget, p.Plan)
}
