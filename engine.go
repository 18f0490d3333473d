package topkclean

import (
	"context"
	"math/rand"

	"github.com/probdb/topkclean/internal/cleaning"
	"github.com/probdb/topkclean/internal/memo"
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
	db   *Database
	cfg  config
	memo *memo.Memo[*Database] // memoized shared state per query size k
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
	e := &Engine{db: db, cfg: cfg}
	e.memo = memo.New(e.pin, carrySnapshot)
	return e, nil
}

// pin returns the database's current snapshot epoch.
func (e *Engine) pin() (*Database, error) {
	snap := e.db.Snapshot()
	if snap == nil {
		return nil, uncertain.ErrNotBuilt
	}
	return snap, nil
}

// carrySnapshot carries a memoized pass across snapshot epochs with the
// database's own bookkeeping: DirtySince merges the intervening
// mutations' dirty-rank watermarks.
func carrySnapshot(cur, prior *Database, _ *RankInfo) (wm int, ok bool) {
	return cur.DirtySince(prior.Version())
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
func (e *Engine) Invalidate() { e.memo.Invalidate() }

// RankInfo returns the engine's shared rank-probability information (the
// full PSR pass), computing and memoizing it on first use. Subsequent
// calls — and Answers, Quality, and PlanCleaning — reuse the identical
// pointer. (Quality/cleaning-only sessions that never ask for rank-h
// probabilities get a lighter top-k-only pass until one is needed.)
func (e *Engine) RankInfo(ctx context.Context) (*RankInfo, error) {
	st, err := e.memo.Get(ctx, e.cfg.k, true)
	if err != nil {
		return nil, err
	}
	return st.Info, nil
}

// Quality returns the PWS-quality of the top-k query (TP algorithm,
// Theorem 1). The score is <= 0; 0 means the answer is certain.
func (e *Engine) Quality(ctx context.Context) (float64, error) {
	st, err := e.memo.Get(ctx, e.cfg.k, false)
	if err != nil {
		return 0, err
	}
	return st.Eval.S, nil
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
	st, err := e.memo.Get(ctx, k, false)
	if err != nil {
		return 0, 0, err
	}
	return st.Eval.S, st.View.Version(), nil
}

// QualityEvaluation returns the full TP evaluation (score, per-tuple
// weights, per-x-tuple gains) that drives the cleaning planners.
func (e *Engine) QualityEvaluation(ctx context.Context) (*QualityEvaluation, error) {
	st, err := e.memo.Get(ctx, e.cfg.k, false)
	if err != nil {
		return nil, err
	}
	return st.Eval, nil
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
	st, err := e.memo.Get(ctx, e.cfg.k, true)
	if err != nil {
		return nil, err
	}
	return st.Result(threshold)
}

// CleaningContext assembles a planning context from the engine's memoized
// quality evaluation — no PSR or TP recomputation — with the given
// cleaning spec and budget. The context reads from the pinned snapshot
// epoch the evaluation was computed on, so planning runs safely while
// mutations continue, and it is stamped with that version; ApplyCleaning
// refuses contexts whose version a later mutation has left behind.
func (e *Engine) CleaningContext(ctx context.Context, spec CleaningSpec, budget int) (*CleaningContext, error) {
	st, err := e.memo.Get(ctx, e.cfg.k, false)
	if err != nil {
		return nil, err
	}
	snap := st.View
	c := &cleaning.Context{DB: snap, K: e.cfg.k, Eval: st.Eval, Spec: spec, Budget: budget, Version: snap.Version()}
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
	before := c.Eval.S       // checked non-nil by ExecuteApplyOn (Context.Validate), unchanged by the mutations
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
