package topkclean

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/probdb/topkclean/internal/topkq"
	"github.com/probdb/topkclean/internal/uncertain"
)

// paperUDB1 rebuilds Table I through the public API.
func paperUDB1(t testing.TB) *Database {
	t.Helper()
	db := NewDatabase()
	add := func(name string, ts ...Tuple) {
		if err := db.AddXTuple(name, ts...); err != nil {
			t.Fatalf("AddXTuple(%s): %v", name, err)
		}
	}
	add("S1", Tuple{ID: "t0", Attrs: []float64{21}, Prob: 0.6}, Tuple{ID: "t1", Attrs: []float64{32}, Prob: 0.4})
	add("S2", Tuple{ID: "t2", Attrs: []float64{30}, Prob: 0.7}, Tuple{ID: "t3", Attrs: []float64{22}, Prob: 0.3})
	add("S3", Tuple{ID: "t4", Attrs: []float64{25}, Prob: 0.4}, Tuple{ID: "t5", Attrs: []float64{27}, Prob: 0.6})
	add("S4", Tuple{ID: "t6", Attrs: []float64{26}, Prob: 1})
	if err := db.Build(ByFirstAttr); err != nil {
		t.Fatalf("Build: %v", err)
	}
	return db
}

// bg is the context the tests and benchmarks hand the engine and the
// planners: they own their lifecycle, so nothing above needs to cancel.
var bg = context.Background()

// testEngine builds an engine over db, failing the test on error.
func testEngine(t testing.TB, db *Database, opts ...Option) *Engine {
	t.Helper()
	eng, err := New(db, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// engineQuality is the PWS-quality of a top-k query on db, through a
// fresh engine.
func engineQuality(t testing.TB, db *Database, k int) float64 {
	t.Helper()
	q, err := testEngine(t, db, WithK(k)).Quality(bg)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestEvaluateBundlesEverything(t *testing.T) {
	db := paperUDB1(t)
	res, err := testEngine(t, db, WithK(2), WithPTKThreshold(0.4)).Answers(bg)
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatScored(res.PTK); got != "{t1, t2, t5}" {
		t.Fatalf("PT-2 = %s, want the paper's {t1, t2, t5}", got)
	}
	if math.Abs(res.Quality-(-2.5513259)) > 1e-6 {
		t.Fatalf("quality = %v, want -2.5513...", res.Quality)
	}
	if len(res.UKRanks) != 2 || res.UKRanks[0].Tuple.ID != "t2" {
		t.Fatalf("U-kRanks = %s", FormatRanked(res.UKRanks))
	}
	if len(res.GlobalTopK) != 2 {
		t.Fatalf("Global-top2 returned %d answers", len(res.GlobalTopK))
	}
	if res.Eval == nil || res.Info == nil {
		t.Fatal("Result should carry the shared evaluation and rank info")
	}
}

// TestIndividualQueryFunctions: each semantics answered alone — PT-k and
// Global-topk from the lighter top-k-only pass — agrees with the engine's
// shared full pass.
func TestIndividualQueryFunctions(t *testing.T) {
	db := paperUDB1(t)
	full, err := topkq.RankProbabilities(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	uk, err := topkq.UKRanks(db, full)
	if err != nil {
		t.Fatal(err)
	}
	light, err := topkq.TopKProbabilities(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	pt := topkq.PTK(db, light, 0.4)
	gt := topkq.GlobalTopK(db, light)
	res, err := testEngine(t, db, WithK(2), WithPTKThreshold(0.4)).Answers(bg)
	if err != nil {
		t.Fatal(err)
	}
	if FormatRanked(uk) != FormatRanked(res.UKRanks) {
		t.Fatal("UKRanks disagrees with Engine.Answers")
	}
	if FormatScored(pt) != FormatScored(res.PTK) {
		t.Fatal("PTK disagrees with Engine.Answers")
	}
	if FormatScored(gt) != FormatScored(res.GlobalTopK) {
		t.Fatal("GlobalTopK disagrees with Engine.Answers")
	}
}

func TestQualityAlgorithmsAgreeViaFacade(t *testing.T) {
	db := paperUDB1(t)
	tp := engineQuality(t, db, 2)
	pwr, err := QualityPWR(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := QualityPW(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tp-pwr) > 1e-9 || math.Abs(tp-pw) > 1e-9 {
		t.Fatalf("TP=%v PWR=%v PW=%v disagree", tp, pwr, pw)
	}
	dist, err := PWResultDistribution(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) != 7 {
		t.Fatalf("|R| = %d, want 7", len(dist))
	}
}

func TestCleaningWorkflow(t *testing.T) {
	db := paperUDB1(t)
	spec := UniformCleaningSpec(db.NumGroups(), 2, 0.8)
	eng := testEngine(t, db, WithK(2), WithSeed(1))
	var prev float64 = math.Inf(1)
	for _, m := range []string{"dp", "greedy", "randp", "randu"} {
		plan, ctx, err := eng.PlanCleaning(bg, m, spec, 10)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		imp := ExpectedImprovement(ctx, plan)
		if imp < 0 {
			t.Fatalf("%s: negative expected improvement %v", m, imp)
		}
		// The planners are listed by expected effectiveness; with this seed
		// the ordering should hold (DP >= Greedy >= RandP >= RandU is not
		// guaranteed per-seed for the random ones, so only check DP/Greedy).
		if m == "dp" || m == "greedy" {
			if imp > prev+1e-9 {
				t.Fatalf("%s (%v) beat a stronger method (%v)", m, imp, prev)
			}
			prev = imp
		}
		if plan.TotalCost(spec) > 10 {
			t.Fatalf("%s exceeded budget", m)
		}
	}
	if _, _, err := eng.PlanCleaning(bg, "bogus", spec, 10); err == nil {
		t.Fatal("unknown method should error")
	}
}

func TestExecuteCleaningViaFacade(t *testing.T) {
	db := paperUDB1(t)
	spec := UniformCleaningSpec(db.NumGroups(), 1, 1) // always succeeds
	plan, ctx, err := testEngine(t, db, WithK(2)).PlanCleaning(bg, "dp", spec, 100)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ExecuteCleaning(ctx, plan, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	// With sc-prob 1 everything planned gets cleaned: quality reaches 0.
	if out.NewQuality != 0 {
		t.Fatalf("post-cleaning quality = %v, want 0 (all uncertainty removed)", out.NewQuality)
	}
	if out.Improvement <= 0 {
		t.Fatalf("improvement = %v, want > 0", out.Improvement)
	}
}

func TestApplyCleaningMatchesPaperNarrative(t *testing.T) {
	db := paperUDB1(t)
	// Clean S3 (group 2) to t5 (alternative index 1): udb1 -> udb2.
	db2, err := ApplyCleaning(db, CleanChoices{2: 1})
	if err != nil {
		t.Fatal(err)
	}
	if q := engineQuality(t, db2, 2); math.Abs(q-(-1.8522415)) > 1e-6 {
		t.Fatalf("udb2 quality = %v, want -1.8522...", q)
	}
}

// TestApplyCleaningRejectsBadKeys pins that a choice keyed by something
// other than an x-tuple index is an error, not a silently unchanged copy.
func TestApplyCleaningRejectsBadKeys(t *testing.T) {
	db := paperUDB1(t)
	for _, choices := range []CleanChoices{{99: 0}, {-1: 0}, {2: 1, 4: 0}} {
		if _, err := ApplyCleaning(db, choices); !errors.Is(err, uncertain.ErrBadGroupIndex) {
			t.Fatalf("ApplyCleaning(%v): err = %v, want ErrBadGroupIndex", choices, err)
		}
	}
	if _, err := ApplyCleaning(db, CleanChoices{2: 9}); !errors.Is(err, uncertain.ErrBadChoice) {
		t.Fatalf("bad choice: err = %v, want ErrBadChoice", err)
	}
}

func TestMinBudgetForTargetViaFacade(t *testing.T) {
	db := paperUDB1(t)
	spec := UniformCleaningSpec(db.NumGroups(), 1, 0.9)
	eng := testEngine(t, db, WithK(2))
	ctx, err := eng.CleaningContext(bg, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	target := ctx.Eval.S / 2
	budget, plan, err := eng.MinBudgetForTarget(bg, ctx, target, 10000, "greedy")
	if err != nil {
		t.Fatal(err)
	}
	if budget <= 0 || len(plan) == 0 {
		t.Fatalf("budget=%d plan=%v", budget, plan)
	}
	if _, _, err := eng.MinBudgetForTarget(bg, ctx, target, 10000, "randu"); err == nil {
		t.Fatal("random planners must be rejected")
	}
}

func TestGeneratorsViaFacade(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.NumXTuples = 50
	db, err := GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumGroups() != 50 {
		t.Fatalf("synthetic groups = %d", db.NumGroups())
	}
	mcfg := DefaultMOVConfig()
	mcfg.NumXTuples = 50
	mov, err := GenerateMOV(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if mov.NumGroups() != 50 {
		t.Fatalf("MOV groups = %d", mov.NumGroups())
	}
	spec, err := DefaultCleaningSpec(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(50); err != nil {
		t.Fatal(err)
	}
	spec2, err := GenerateCleaningSpec(50, 2, 4, NormalSC{Mean: 0.5, Sigma: 0.167}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range spec2.Costs {
		if c < 2 || c > 4 {
			t.Fatalf("cost %d out of range", c)
		}
	}
}

func TestIORoundTripViaFacade(t *testing.T) {
	db := paperUDB1(t)
	var csvBuf, jsonBuf, specBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, db); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&jsonBuf, db); err != nil {
		t.Fatal(err)
	}
	fromCSV, err := ReadCSV(&csvBuf, ByFirstAttr)
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := ReadJSON(&jsonBuf, ByFirstAttr)
	if err != nil {
		t.Fatal(err)
	}
	want := engineQuality(t, db, 2)
	for name, d := range map[string]*Database{"csv": fromCSV, "json": fromJSON} {
		if got := engineQuality(t, d, 2); got != want {
			t.Fatalf("%s round trip changed quality: %v vs %v", name, got, want)
		}
	}
	spec := UniformCleaningSpec(4, 3, 0.5)
	if err := WriteSpecJSON(&specBuf, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSpecJSON(&specBuf, 4); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedSumRankFunc(t *testing.T) {
	db := NewDatabase()
	if err := db.AddXTuple("A",
		Tuple{ID: "low", Attrs: []float64{10, 0}, Prob: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddXTuple("B",
		Tuple{ID: "high", Attrs: []float64{0, 10}, Prob: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(WeightedSum(0.1, 1.0)); err != nil {
		t.Fatal(err)
	}
	if db.Sorted()[0].ID != "high" {
		t.Fatal("WeightedSum ranking not applied")
	}
}

func TestStatsExposed(t *testing.T) {
	db := paperUDB1(t)
	var st DatabaseStats = db.ComputeStats()
	if st.Groups != 4 || st.RealTuples != 7 {
		t.Fatalf("stats: %+v", st)
	}
}
