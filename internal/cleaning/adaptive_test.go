package cleaning

import (
	"math/rand"
	"testing"

	"github.com/probdb/topkclean/internal/testdb"
)

func TestAdaptiveExecuteBasics(t *testing.T) {
	ctx := ctxUDB1(t, 10, Spec{})
	rng := rand.New(rand.NewSource(3))
	out, err := AdaptiveExecuteContext(bg, ctx, GreedyContext, rng, 10)
	if err != nil {
		t.Fatal(err)
	}
	if out.CostUsed > ctx.Budget {
		t.Fatalf("adaptive spent %d > budget %d", out.CostUsed, ctx.Budget)
	}
	if out.Initial != ctx.Eval.S {
		t.Fatalf("initial quality mismatch")
	}
	if out.Improvement < 0 {
		t.Fatalf("adaptive cleaning worsened quality: %v", out.Improvement)
	}
	if out.Final != out.Initial+out.Improvement {
		t.Fatalf("improvement accounting inconsistent")
	}
	if len(out.Rounds) == 0 {
		t.Fatal("expected at least one round with a positive budget")
	}
	if last := out.Rounds[len(out.Rounds)-1].DB; last.NumGroups() != ctx.DB.NumGroups() {
		t.Fatal("adaptive cleaning changed the x-tuple count")
	}
}

func TestAdaptiveBudgetNeverExceededAcrossRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		db := testdb.Random(rng, testdb.RandomConfig{MaxGroups: 8, MaxPerGroup: 3, AllowNulls: false})
		m := db.NumGroups()
		spec := Spec{Costs: make([]int, m), SCProbs: make([]float64, m)}
		for l := 0; l < m; l++ {
			spec.Costs[l] = 1 + rng.Intn(4)
			spec.SCProbs[l] = 0.2 + 0.6*rng.Float64()
		}
		k := 1 + rng.Intn(m)
		budget := 5 + rng.Intn(30)
		ctx, err := NewContext(db, k, spec, budget)
		if err != nil {
			t.Fatal(err)
		}
		out, err := AdaptiveExecuteContext(bg, ctx, GreedyContext, rng, 50)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, r := range out.Rounds {
			total += r.CostUsed
		}
		if total != out.CostUsed {
			t.Fatalf("trial %d: cost accounting mismatch: %d vs %d", trial, total, out.CostUsed)
		}
		if total > budget {
			t.Fatalf("trial %d: spent %d of budget %d", trial, total, budget)
		}
	}
}

// TestAdaptiveBeatsOneShotOnAverage verifies the point of re-planning: the
// refunded budget buys extra improvement. With sc-probability well below 1
// and generous per-x-tuple op counts, one-shot plans leave money on the
// table whenever an early attempt succeeds.
func TestAdaptiveBeatsOneShotOnAverage(t *testing.T) {
	db := testdb.Random(rand.New(rand.NewSource(77)), testdb.RandomConfig{MaxGroups: 20, MaxPerGroup: 4, AllowNulls: false})
	m := db.NumGroups()
	spec := UniformSpec(m, 2, 0.5)
	ctx, err := NewContext(db, min(5, m), spec, 30)
	if err != nil {
		t.Fatal(err)
	}
	const reps = 60
	var oneShot, adaptive float64
	for i := 0; i < reps; i++ {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		plan, err := GreedyContext(bg, ctx)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Execute(ctx, plan, rng)
		if err != nil {
			t.Fatal(err)
		}
		oneShot += res.Improvement / reps

		rng2 := rand.New(rand.NewSource(int64(1000 + i)))
		out, err := AdaptiveExecuteContext(bg, ctx, GreedyContext, rng2, 20)
		if err != nil {
			t.Fatal(err)
		}
		adaptive += out.Improvement / reps
	}
	if adaptive < oneShot-1e-9 {
		t.Fatalf("adaptive (%v) should not trail one-shot (%v) on average", adaptive, oneShot)
	}
	if adaptive <= oneShot {
		t.Logf("note: adaptive %.4f vs one-shot %.4f (no strict gain this seed set)", adaptive, oneShot)
	}
}

func TestAdaptiveStopsWhenCertain(t *testing.T) {
	// sc-prob 1 and a huge budget: the first round cleans everything, the
	// loop must stop rather than spin for maxRounds.
	db := testdb.UDB1()
	spec := UniformSpec(db.NumGroups(), 1, 1)
	ctx, err := NewContext(db, 2, spec, 1000)
	if err != nil {
		t.Fatal(err)
	}
	out, err := AdaptiveExecuteContext(bg, ctx, DPContext, rand.New(rand.NewSource(1)), 100)
	if err != nil {
		t.Fatal(err)
	}
	if out.Final != 0 {
		t.Fatalf("final quality = %v, want 0", out.Final)
	}
	if len(out.Rounds) > 2 {
		t.Fatalf("expected to stop quickly once certain, ran %d rounds", len(out.Rounds))
	}
}

func TestAdaptiveValidation(t *testing.T) {
	ctx := ctxUDB1(t, 10, Spec{})
	if _, err := AdaptiveExecuteContext(bg, ctx, GreedyContext, rand.New(rand.NewSource(1)), 0); err == nil {
		t.Fatal("maxRounds=0 must be rejected")
	}
	bad := *ctx
	bad.Eval = nil
	if _, err := AdaptiveExecuteContext(bg, &bad, GreedyContext, rand.New(rand.NewSource(1)), 5); err == nil {
		t.Fatal("invalid context must be rejected")
	}
}

func TestAdaptiveZeroBudget(t *testing.T) {
	ctx := ctxUDB1(t, 0, Spec{})
	out, err := AdaptiveExecuteContext(bg, ctx, GreedyContext, rand.New(rand.NewSource(1)), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rounds) != 0 || out.CostUsed != 0 || out.Improvement != 0 {
		t.Fatalf("zero budget should do nothing: %+v", out)
	}
}

func TestAdaptiveWithHeterogeneousSpec(t *testing.T) {
	db := testdb.Random(rand.New(rand.NewSource(5)), testdb.RandomConfig{MaxGroups: 10, MaxPerGroup: 3})
	rng := rand.New(rand.NewSource(3))
	m := db.NumGroups()
	spec := Spec{Costs: make([]int, m), SCProbs: make([]float64, m)}
	for l := 0; l < m; l++ {
		spec.Costs[l] = 1 + rng.Intn(5)
		spec.SCProbs[l] = 0.1 + 0.8*rng.Float64()
	}
	ctx, err := NewContext(db, min(3, db.NumGroups()), spec, 25)
	if err != nil {
		t.Fatal(err)
	}
	out, err := AdaptiveExecuteContext(bg, ctx, GreedyContext, rand.New(rand.NewSource(9)), 10)
	if err != nil {
		t.Fatal(err)
	}
	if out.CostUsed > 25 {
		t.Fatalf("budget exceeded: %d", out.CostUsed)
	}
}
