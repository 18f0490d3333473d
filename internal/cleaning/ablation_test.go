package cleaning

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/probdb/topkclean/internal/numeric"
	"github.com/probdb/topkclean/internal/testdb"
)

// TestGreedyRescanMatchesHeapGreedy: the two greedy implementations must
// produce plans of identical value (and, with the shared tie-break,
// identical plans).
func TestGreedyRescanMatchesHeapGreedy(t *testing.T) {
	f := func(q quickCtx) bool {
		ctx := q.Ctx
		heapPlan, err := GreedyContext(bg, ctx)
		if err != nil {
			return false
		}
		scanPlan, err := AblationGreedyRescan(ctx)
		if err != nil {
			return false
		}
		if len(heapPlan) != len(scanPlan) {
			return false
		}
		for l, ops := range heapPlan {
			if scanPlan[l] != ops {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestDPNoCapMatchesDP: removing the geometric-decay item cap must not
// change the optimal value beyond the cap's 1e-15 tolerance.
func TestDPNoCapMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 30; trial++ {
		db := testdb.Random(rng, testdb.RandomConfig{MaxGroups: 6, MaxPerGroup: 3, AllowNulls: true})
		m := db.NumGroups()
		spec := Spec{Costs: make([]int, m), SCProbs: make([]float64, m)}
		for l := 0; l < m; l++ {
			spec.Costs[l] = 1 + rng.Intn(5)
			spec.SCProbs[l] = rng.Float64()
		}
		ctx, err := NewContext(db, 1+rng.Intn(m), spec, 5+rng.Intn(200))
		if err != nil {
			t.Fatal(err)
		}
		capped, err := DPContext(bg, ctx)
		if err != nil {
			t.Fatal(err)
		}
		uncapped, err := AblationDPNoCap(ctx)
		if err != nil {
			t.Fatal(err)
		}
		a := ExpectedImprovement(ctx, capped)
		b := ExpectedImprovement(ctx, uncapped)
		if !numeric.AlmostEqual(a, b, 1e-9, 1e-9) {
			t.Fatalf("trial %d: capped %v vs uncapped %v", trial, a, b)
		}
	}
}

// TestDPNoCapBudgetRespected: even without the cap the plan must stay
// within budget.
func TestDPNoCapBudgetRespected(t *testing.T) {
	ctx := ctxUDB1(t, 500, Spec{})
	plan, err := AblationDPNoCap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalCost(ctx.Spec) > 500 {
		t.Fatalf("uncapped DP exceeded budget: %d", plan.TotalCost(ctx.Spec))
	}
}
