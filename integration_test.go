package topkclean

// End-to-end integration tests: generate -> query -> measure quality ->
// plan -> simulate -> verify, across module boundaries, through the public
// API only.

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// TestPipelineSyntheticEndToEnd runs the full lifecycle on the synthetic
// workload: the expected improvement of the executed plan must match the
// Monte-Carlo average of realized improvements.
func TestPipelineSyntheticEndToEnd(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.NumXTuples = 300
	cfg.Seed = 5
	db, err := GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	eng := testEngine(t, db, WithK(k))
	res, err := eng.Answers(bg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality >= 0 {
		t.Fatalf("synthetic data should be ambiguous, S = %v", res.Quality)
	}
	spec, err := DefaultCleaningSpec(db.NumGroups(), 6)
	if err != nil {
		t.Fatal(err)
	}
	plan, ctx, err := eng.PlanCleaning(bg, "greedy", spec, 80)
	if err != nil {
		t.Fatal(err)
	}
	expected := ExpectedImprovement(ctx, plan)
	if expected <= 0 {
		t.Fatalf("greedy found no improvement with budget 80: %v", expected)
	}
	var avg float64
	const trials = 300
	for i := 0; i < trials; i++ {
		out, err := ExecuteCleaning(ctx, plan, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		avg += out.Improvement / trials
	}
	if math.Abs(avg-expected) > 0.15*expected {
		t.Fatalf("Monte-Carlo improvement %v deviates from Theorem 2's %v", avg, expected)
	}
}

// TestPipelineMOVWithPersistence exercises MOV generation, JSON round-trip,
// and query equivalence across the round trip.
func TestPipelineMOVWithPersistence(t *testing.T) {
	cfg := DefaultMOVConfig()
	cfg.NumXTuples = 200
	db, err := GenerateMOV(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf, SumOfAttrs)
	if err != nil {
		t.Fatal(err)
	}
	a, err := testEngine(t, db, WithK(10)).Answers(bg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := testEngine(t, back, WithK(10)).Answers(bg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Quality != b.Quality {
		t.Fatalf("quality changed across JSON round trip: %v vs %v", a.Quality, b.Quality)
	}
	if FormatScored(a.GlobalTopK) != FormatScored(b.GlobalTopK) {
		t.Fatal("Global-topk changed across JSON round trip")
	}
}

// TestAdaptiveCleaningFacade drives the future-work extension through the
// public API.
func TestAdaptiveCleaningFacade(t *testing.T) {
	db := paperUDB1(t)
	spec := UniformCleaningSpec(db.NumGroups(), 1, 0.6)
	eng := testEngine(t, db, WithK(2))
	ctx, err := eng.CleaningContext(bg, spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.AdaptiveCleaning(bg, ctx, "greedy", rand.New(rand.NewSource(2)), 10)
	if err != nil {
		t.Fatal(err)
	}
	if out.CostUsed > 8 {
		t.Fatalf("adaptive spent %d > budget 8", out.CostUsed)
	}
	if out.Improvement < 0 {
		t.Fatalf("negative improvement %v", out.Improvement)
	}
	if _, err := eng.AdaptiveCleaning(bg, ctx, "randu", rand.New(rand.NewSource(2)), 10); err == nil {
		t.Fatal("random planners must be rejected for adaptive cleaning")
	}
}

// TestPaperExampleDatabaseFacade pins the exported running example.
func TestPaperExampleDatabaseFacade(t *testing.T) {
	db := PaperExampleDatabase()
	if s := engineQuality(t, db, 2); math.Abs(s-(-2.5513259)) > 1e-6 {
		t.Fatalf("paper example quality = %v", s)
	}
	best, err := UTopK(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if best.TupleIDs[0] != "t1" || best.TupleIDs[1] != "t2" {
		t.Fatalf("U-Top2 = %v", best.TupleIDs)
	}
}

// TestCleaningCandidatesAndVerifyFacade exercises the explainability and
// verification helpers through the public API.
func TestCleaningCandidatesAndVerifyFacade(t *testing.T) {
	db := PaperExampleDatabase()
	spec := UniformCleaningSpec(db.NumGroups(), 1, 0.8)
	// The verification streams start at the engine seed + 1, here 7.
	eng := testEngine(t, db, WithK(2), WithSeed(6), WithParallelism(4))
	ctx, err := eng.CleaningContext(bg, spec, 6)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := CleaningCandidates(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates on the paper example")
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].Gamma > cands[i-1].Gamma {
			t.Fatal("candidates not ranked")
		}
	}
	plan, _, err := eng.PlanCleaning(bg, "dp", spec, 6)
	if err != nil {
		t.Fatal(err)
	}
	analytical, simulated, err := eng.VerifyImprovement(bg, ctx, plan, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(analytical-simulated) > 0.06 {
		t.Fatalf("verification gap too large: %v vs %v", analytical, simulated)
	}
}

// TestDefaultSyntheticRegressionAnchor pins the seeded default dataset's
// quality so algorithmic regressions are caught (the value is this
// implementation's analogue of the paper's S = -66.797551 at k=15).
func TestDefaultSyntheticRegressionAnchor(t *testing.T) {
	if testing.Short() {
		t.Skip("50K-tuple generation")
	}
	cfg := DefaultSyntheticConfig() // seed 1, 5000 x-tuples
	db, err := GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := testEngine(t, db, WithK(15)).QualityEvaluation(bg)
	if err != nil {
		t.Fatal(err)
	}
	s := ev.S
	const anchor = -60.537048
	if math.Abs(s-anchor) > 1e-4 {
		t.Fatalf("default synthetic quality = %.6f, anchor %.6f (seeded generation or TP changed)", s, anchor)
	}
	// Cross-check the anchor with the independent PWR-limited... PWR is
	// infeasible at k=15 here; instead verify internal consistency: the sum
	// of group gains equals S.
	var sum float64
	for _, g := range ev.Gains() {
		sum += g.Value
	}
	if math.Abs(sum-s) > 1e-9 {
		t.Fatalf("group gains sum %v != S %v", sum, s)
	}
}

// TestCrossAlgorithmAgreementThroughFacade is the paper's 1e-8 agreement
// criterion run through the public API on a mid-sized database where PWR
// is feasible.
func TestCrossAlgorithmAgreementThroughFacade(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.NumXTuples = 50
	cfg.Seed = 9
	db, err := GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := testEngine(t, db)
	for _, k := range []int{1, 2, 3} {
		tp, err := eng.QualityAt(bg, k)
		if err != nil {
			t.Fatal(err)
		}
		pwr, err := QualityPWR(db, k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(tp-pwr) > 1e-8 {
			t.Fatalf("k=%d: TP %v vs PWR %v", k, tp, pwr)
		}
	}
}

// TestMinBudgetMonotoneInTarget: stricter targets need at least as much
// budget.
func TestMinBudgetMonotoneInTarget(t *testing.T) {
	db := paperUDB1(t)
	spec := UniformCleaningSpec(db.NumGroups(), 2, 0.7)
	eng := testEngine(t, db, WithK(2))
	ctx, err := eng.CleaningContext(bg, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for _, frac := range []float64{0.2, 0.5, 0.8} {
		target := ctx.Eval.S * (1 - frac)
		budget, _, err := eng.MinBudgetForTarget(bg, ctx, target, 100000, "dp")
		if err != nil {
			t.Fatal(err)
		}
		if budget < prev {
			t.Fatalf("budget decreased for stricter target: %d < %d", budget, prev)
		}
		prev = budget
	}
}

// TestQueryAnswersStableUnderCleaning: cleaning to the most probable
// alternative should keep that alternative in (or move it into) the PT-k
// answer, never silently drop the confirmed value below its own p=e=1.
func TestConfirmedTupleAlwaysAnswerable(t *testing.T) {
	db := paperUDB1(t)
	// Confirm S2 = t2 (alternative 0).
	cleaned, err := ApplyCleaning(db, CleanChoices{1: 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := testEngine(t, cleaned, WithK(2), WithPTKThreshold(0.5)).Answers(bg)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range res.PTK {
		if a.Tuple.ID == "t2" {
			found = true
			if a.Prob < 0.5 {
				t.Fatalf("confirmed t2 has p=%v", a.Prob)
			}
		}
	}
	if !found {
		t.Fatal("confirmed top tuple t2 missing from PT-k answer")
	}
}
