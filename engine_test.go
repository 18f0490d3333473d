package topkclean

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/probdb/topkclean/internal/quality"
	"github.com/probdb/topkclean/internal/topkq"
)

// engineSyntheticDB builds a mid-sized synthetic database for engine and
// cancellation tests.
func engineSyntheticDB(t testing.TB, xtuples int) *Database {
	t.Helper()
	cfg := DefaultSyntheticConfig()
	cfg.NumXTuples = xtuples
	db, err := GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestEngineAnswersMatchLegacyEvaluate: the engine's memoized answers
// agree with a from-scratch PSR pass and TP evaluation.
func TestEngineAnswersMatchLegacyEvaluate(t *testing.T) {
	db := paperUDB1(t)
	eng, err := New(db, WithK(2), WithPTKThreshold(0.4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Answers(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	info, err := topkq.RankProbabilities(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	uk, err := topkq.UKRanks(db, info)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := quality.TP(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := FormatScored(topkq.PTK(db, info, 0.4)); FormatScored(res.PTK) != want {
		t.Fatalf("PTK: engine %s, direct pass %s", FormatScored(res.PTK), want)
	}
	if FormatRanked(res.UKRanks) != FormatRanked(uk) {
		t.Fatalf("UKRanks: engine %s, direct pass %s", FormatRanked(res.UKRanks), FormatRanked(uk))
	}
	if FormatScored(res.GlobalTopK) != FormatScored(topkq.GlobalTopK(db, info)) {
		t.Fatal("GlobalTopK disagrees with the direct pass")
	}
	if math.Abs(res.Quality-ev.S) > 1e-12 {
		t.Fatalf("quality: engine %v, quality.TP %v", res.Quality, ev.S)
	}
	if res.K != 2 || res.Threshold != 0.4 {
		t.Fatalf("result metadata: k=%d threshold=%v", res.K, res.Threshold)
	}
}

// TestEngineMemoizesSharedPass is the session-reuse contract: every method
// of one engine hands back the identical RankInfo pointer for the same k,
// proving the PSR pass ran once.
func TestEngineMemoizesSharedPass(t *testing.T) {
	db := paperUDB1(t)
	eng, err := New(db, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	info, err := eng.RankInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := eng.Answers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := eng.Answers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := eng.QualityEvaluation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	spec := UniformCleaningSpec(db.NumGroups(), 1, 0.8)
	plan, cctx, err := eng.PlanCleaning(ctx, "greedy", spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) == 0 {
		t.Fatal("greedy plan on udb1 should clean something")
	}
	if res1.Info != info || res2.Info != info {
		t.Fatal("Answers did not reuse the memoized RankInfo pointer")
	}
	if ev.Info != info {
		t.Fatal("QualityEvaluation did not reuse the memoized RankInfo pointer")
	}
	if cctx.Eval != ev || cctx.Eval.Info != info {
		t.Fatal("PlanCleaning did not reuse the memoized evaluation")
	}
	if res1.Eval != ev {
		t.Fatal("Answers carries a different evaluation than QualityEvaluation")
	}
}

// TestEngineLightThenFullUpgrade: quality-only use runs the cheaper
// top-k-only pass; the first Answers (which needs rank-h probabilities for
// U-kRanks) upgrades the memoized state in place, and everything after
// shares the upgraded pointer.
func TestEngineLightThenFullUpgrade(t *testing.T) {
	db := paperUDB1(t)
	eng, err := New(db, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q, err := eng.Quality(ctx) // light pass
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Answers(ctx) // forces the full pass
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Quality-q) > 1e-12 {
		t.Fatalf("light quality %v, full quality %v", q, res.Quality)
	}
	info, err := eng.RankInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := eng.QualityEvaluation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Info != info || res.Eval != ev {
		t.Fatal("post-upgrade state not shared across methods")
	}
}

func TestEngineInvalidateRecomputes(t *testing.T) {
	db := paperUDB1(t)
	eng, err := New(db, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	before, err := eng.RankInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	eng.Invalidate()
	after, err := eng.RankInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if before == after {
		t.Fatal("Invalidate should drop the memoized pass")
	}
}

func TestEngineConcurrentAnswersSingleFlight(t *testing.T) {
	db := engineSyntheticDB(t, 300)
	eng, err := New(db, WithK(10))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	infos := make([]*RankInfo, goroutines)
	errs := make([]error, goroutines)
	done := make(chan int, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			res, err := eng.Answers(context.Background())
			if err != nil {
				errs[g] = err
			} else {
				infos[g] = res.Info
			}
			done <- g
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		<-done
	}
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if infos[g] != infos[0] {
			t.Fatal("concurrent Answers saw different RankInfo pointers; the pass ran more than once")
		}
	}
}

func TestEngineQualityMatchesLegacy(t *testing.T) {
	db := engineSyntheticDB(t, 100)
	eng, err := New(db, WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Quality(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := quality.TP(db, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want.S) > 1e-12 {
		t.Fatalf("engine quality %v, quality.TP %v", got, want.S)
	}
}

func TestEngineVerifyImprovement(t *testing.T) {
	db := paperUDB1(t)
	eng, err := New(db, WithK(2), WithSeed(7), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	spec := UniformCleaningSpec(db.NumGroups(), 1, 0.9)
	plan, cctx, err := eng.PlanCleaning(ctx, "dp", spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	analytical, simulated, err := eng.VerifyImprovement(ctx, cctx, plan, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if analytical <= 0 {
		t.Fatalf("analytical improvement %v, want > 0", analytical)
	}
	if math.Abs(analytical-simulated) > 0.15 {
		t.Fatalf("analytical %v and simulated %v diverge", analytical, simulated)
	}
}

func TestEngineAdaptiveAndMinBudget(t *testing.T) {
	db := paperUDB1(t)
	eng, err := New(db, WithK(2), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	spec := UniformCleaningSpec(db.NumGroups(), 1, 0.9)
	cctx, err := eng.CleaningContext(ctx, spec, 6)
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.AdaptiveCleaning(ctx, cctx, "greedy", nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if out.Improvement < 0 {
		t.Fatalf("adaptive improvement %v, want >= 0", out.Improvement)
	}
	target := cctx.Eval.S / 2
	budget, plan, err := eng.MinBudgetForTarget(ctx, cctx, target, 10000, "greedy")
	if err != nil {
		t.Fatal(err)
	}
	if budget <= 0 || len(plan) == 0 {
		t.Fatalf("min budget %d plan %v", budget, plan)
	}
	if _, _, err := eng.MinBudgetForTarget(ctx, cctx, target, 10000, "no-such-planner"); !errors.Is(err, ErrUnknownPlanner) {
		t.Fatalf("unknown planner: got %v", err)
	}
	// Randomized planners break the binary search's monotonicity
	// precondition and the re-planning loop's independence; both engine
	// methods must reject them.
	if _, _, err := eng.MinBudgetForTarget(ctx, cctx, target, 10000, "randu"); err == nil {
		t.Fatal("MinBudgetForTarget must reject randomized planners")
	}
	if _, err := eng.AdaptiveCleaning(ctx, cctx, "randp", nil, 5); err == nil {
		t.Fatal("AdaptiveCleaning must reject randomized planners")
	}
}

// TestEvaluateKeepsUnvalidatedThresholdDomain: a per-call threshold given
// to AnswersThreshold is not range-validated like WithPTKThreshold's;
// out-of-range values give an empty or complete PT-k answer.
func TestEvaluateKeepsUnvalidatedThresholdDomain(t *testing.T) {
	eng, err := New(paperUDB1(t), WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.AnswersThreshold(context.Background(), 1.5)
	if err != nil {
		t.Fatalf("threshold 1.5: %v", err)
	}
	if len(res.PTK) != 0 {
		t.Fatalf("threshold above 1 should yield an empty PT-k answer, got %s", FormatScored(res.PTK))
	}
	if res.Threshold != 1.5 {
		t.Fatalf("Threshold = %v, want the caller's 1.5", res.Threshold)
	}
	neg, err := eng.AnswersThreshold(context.Background(), -1)
	if err != nil {
		t.Fatalf("threshold -1: %v", err)
	}
	if len(neg.PTK) == 0 {
		t.Fatal("negative threshold should admit every tuple with nonzero top-k probability")
	}
}

// TestCancellationAbortsPlanners drives the context threading through the
// DP, Greedy, and Monte-Carlo hot loops: a cancelled context must abort
// promptly with ctx.Err() everywhere.
func TestCancellationAbortsPlanners(t *testing.T) {
	db := engineSyntheticDB(t, 400)
	eng, err := New(db, WithK(10))
	if err != nil {
		t.Fatal(err)
	}
	spec := UniformCleaningSpec(db.NumGroups(), 1, 0.5)
	cctx, err := eng.CleaningContext(context.Background(), spec, 200)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	for _, name := range Planners() {
		p, err := LookupPlanner(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Plan(cancelled, cctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("planner %q with cancelled context: got %v, want context.Canceled", name, err)
		}
	}

	if _, _, err := eng.PlanCleaning(cancelled, "dp", spec, 200); !errors.Is(err, context.Canceled) {
		t.Fatalf("Engine.PlanCleaning: got %v", err)
	}
	plan, _, err := eng.PlanCleaning(context.Background(), "greedy", spec, 200)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.VerifyImprovement(cancelled, cctx, plan, 10000); !errors.Is(err, context.Canceled) {
		t.Fatalf("Engine.VerifyImprovement: got %v", err)
	}
	if _, err := eng.AdaptiveCleaning(cancelled, cctx, "greedy", nil, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("Engine.AdaptiveCleaning: got %v", err)
	}
	if _, _, err := eng.MinBudgetForTarget(cancelled, cctx, cctx.Eval.S/2, 10000, "greedy"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Engine.MinBudgetForTarget: got %v", err)
	}

	// A fresh engine with a cancelled context never starts the PSR pass.
	eng2, err := New(db, WithK(10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.Answers(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Answers on cancelled context: got %v", err)
	}
	// But a memoized engine can still serve cached state... by design the
	// memo hit path does not consult ctx (nothing left to cancel).
	if _, err := eng.Quality(cancelled); err != nil {
		t.Fatalf("memoized Quality should not fail: %v", err)
	}
}

// TestCancellationMidFlight cancels while a large DP plan is running and
// checks the planner comes back with context.Canceled rather than a plan.
func TestCancellationMidFlight(t *testing.T) {
	db := engineSyntheticDB(t, 2000)
	eng, err := New(db, WithK(15))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := DefaultCleaningSpec(db.NumGroups(), 77)
	if err != nil {
		t.Fatal(err)
	}
	cctx, err := eng.CleaningContext(context.Background(), spec, 5000)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	type res struct {
		plan CleaningPlan
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		p, err := LookupPlanner("dp")
		if err != nil {
			ch <- res{nil, err}
			return
		}
		plan, err := p.Plan(ctx, cctx)
		ch <- res{plan, err}
	}()
	cancel()
	r := <-ch
	// The goroutine may have finished before cancel landed; both outcomes
	// are legal, but an error must be the context's.
	if r.err != nil && !errors.Is(r.err, context.Canceled) {
		t.Fatalf("mid-flight cancel: got %v", r.err)
	}
	if r.err != nil && r.plan != nil {
		t.Fatal("cancelled planner must not return a plan")
	}
}
