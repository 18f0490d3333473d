// Package topkclean is a library for quantifying and improving the quality
// of probabilistic top-k queries over uncertain databases, implementing
// Mo, Cheng, Li, Cheung, and Yang, "Cleaning Uncertain Data for Top-k
// Queries", ICDE 2013.
//
// # Overview
//
// An uncertain database is a set of x-tuples; each x-tuple holds mutually
// exclusive alternatives with existential probabilities (the Trio x-tuple
// model). Probabilistic top-k queries — U-kRanks, PT-k, and Global-topk —
// return tuples likely to rank among the k best under possible-world
// semantics. This package provides:
//
//   - Query evaluation via the PSR rank-probability algorithm (O(kn)).
//   - The PWS-quality metric: the negated entropy of the distribution of
//     possible top-k answers, a principled measure of how ambiguous a query
//     answer is. Three algorithms compute it: PW (exponential baseline),
//     PWR (pw-result enumeration, O(n^{k+1})), and TP (tuple-form, O(kn),
//     sharing its computation with query evaluation).
//   - Budgeted cleaning: given per-x-tuple cleaning costs and success
//     probabilities, choose which x-tuples to clean (and how many times) to
//     maximize the expected quality improvement. Planners: optimal DP,
//     near-optimal Greedy, and the RandU/RandP baselines. A simulator
//     executes plans against a stochastic cleaning agent.
//
// # Sessions: the Engine
//
// The paper's central trick is computation sharing (Section IV-C): one PSR
// rank-probability pass answers all three query semantics and the
// PWS-quality that drives cleaning, at ~6% overhead. An Engine extends
// that sharing across a whole session — it runs the pass once per (db, k)
// and memoizes it, so Answers, Quality, and PlanCleaning never recompute:
//
//	db := topkclean.NewDatabase()
//	db.AddXTuple("S1",
//		topkclean.Tuple{ID: "t0", Attrs: []float64{21}, Prob: 0.6},
//		topkclean.Tuple{ID: "t1", Attrs: []float64{32}, Prob: 0.4})
//	db.AddXTuple("S4", topkclean.Tuple{ID: "t6", Attrs: []float64{26}, Prob: 1})
//	db.Build(topkclean.ByFirstAttr)
//
//	eng, _ := topkclean.New(db, topkclean.WithK(2), topkclean.WithPTKThreshold(0.4))
//	ctx := context.Background()
//
//	res, _ := eng.Answers(ctx) // all three semantics + quality, one PSR pass
//	fmt.Println(res.PTK, res.Quality)
//
//	spec := topkclean.UniformCleaningSpec(db.NumGroups(), 1, 0.8)
//	plan, cctx, _ := eng.PlanCleaning(ctx, "greedy", spec, 10) // reuses the pass
//	fmt.Println(topkclean.ExpectedImprovement(cctx, plan))
//
// Functional options configure the session: WithK, WithPTKThreshold,
// WithRankFunc (builds an unbuilt database), WithParallelism (simulation
// workers), and WithSeed (randomized planners and Monte-Carlo streams).
// Engines are safe for concurrent use; every method takes a
// context.Context, and cancellation aborts the DP/Greedy/Monte-Carlo hot
// loops promptly with ctx.Err().
//
// # Mutation, watermarks, and incremental revalidation
//
// A built database can be mutated in place: InsertXTuple and
// InsertAbsentXTuple add x-tuples by ordered insertion into the existing
// rank order, DeleteXTuple removes one (renumbering later indices),
// Reweight revises an x-tuple's existential probabilities (maintaining its
// null alternative), Collapse resolves an x-tuple to one alternative
// with probability 1 — the effect of a successful cleaning operation —
// and Database.Batch groups several mutations under a single commit.
// Every mutation bumps Database.Version and records a dirty-rank
// watermark: the lowest rank position it may have changed, answerable
// afterwards via Database.DirtySince.
//
// The Engine is delta-aware: after a mutation it does not recompute its
// memoized PSR pass but resumes it from the last scan checkpoint below
// the watermark, bit-identically to a from-scratch pass — a mutation at
// the bottom of the ranking (below the scan's early-termination point)
// is a pure cache hit. One session spans any number of updates and its
// answers always match a freshly rebuilt database. Previously returned
// Results stay valid too: answer entries snapshot the tuple's ID, score,
// and rank position at answer time, so later mutations cannot change
// them under the caller. Engine.ApplyCleaning executes a cleaning plan
// onto the live database this way and re-evaluates the quality, closing
// the paper's clean→re-query loop; contexts are version-stamped, and
// applying one that predates a later mutation fails with
// ErrStaleCleaningContext.
//
// # Snapshots: queries run concurrently with mutations
//
// Each commit — Build, a single mutation, a whole Batch, an
// ApplyCleaning — publishes an immutable snapshot epoch, and every Engine
// query pins the current epoch with one atomic load and reads only
// through it. Queries therefore run fully concurrently with mutations:
// they never block on a writer, never observe a partial batch or an index
// renumbering, and always describe exactly one committed version
// (Result.Version says which). Mutations serialize against each other on
// the database's writer lock; no external synchronization is needed in
// either direction. The epochs are copy-on-write at chunk granularity —
// a commit copies the rank and group chunk spines once and clones only
// the x-tuples, rank chunks and group chunks it touched — so a snapshot
// costs readers
// nothing and writers a sub-linear copy per commit (see DESIGN.md,
// "Snapshot serving" and "Chunked rank order").
//
// Database.Snapshot exposes the same mechanism directly: it returns a
// frozen *Database view for callers that want to pin a version across
// several reads (mutating a snapshot fails with ErrFrozenSnapshot;
// Clone branches a mutable copy off one).
//
// # Durability: the store
//
// internal/store makes a database survive restarts: Create journals a
// built database, every mutation through the store handle appends a
// write-ahead-log record (fsynced before success by default), full
// snapshots are checkpointed periodically from pinned epochs, and Open
// recovers a bit-identical database — same rank order, same version
// counter, same Float64bits of every answer — after any crash, with torn
// journal tails discarded rather than half-applied. The byte-level
// storage is a small pluggable Backend (file and in-memory backends
// ship). See PERSISTENCE.md for the record format and the crash-recovery
// contract, and DESIGN.md ("Storage") for the design rationale.
//
// The cmd/topkcleand daemon serves this loop over HTTP for a registry of
// named databases — /dbs create/list/delete plus per-database
// topk/quality/plan/apply/mutate/stats routes (the legacy single-database
// routes alias the "default" database) — with request coalescing,
// graceful shutdown, and, with -store, per-database durability and
// recovery on startup; see SERVING.md for the route table, the API
// reference, the consistency guarantees, and operational notes.
//
// # Planners as values
//
// Plan-selection strategies implement the Planner interface and live in a
// concurrency-safe registry. The four paper planners are pre-registered as
// "dp", "greedy", "randp", and "randu"; add your own with RegisterPlanner
// and it becomes addressable by name everywhere a planner name is
// accepted (Engine.PlanCleaning, the topkclean CLI's -method flag, and —
// for deterministic planners — Engine.AdaptiveCleaning and
// Engine.MinBudgetForTarget, whose re-planning loop and budget binary
// search require non-random, monotone plans).
//
// See the examples directory for complete programs and DESIGN.md for the
// mapping between this library and the paper.
package topkclean
