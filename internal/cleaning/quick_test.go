package cleaning

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/probdb/topkclean/internal/numeric"
	"github.com/probdb/topkclean/internal/testdb"
)

// quickCtx is a quick-generatable cleaning scenario: database, query size,
// spec, and budget.
type quickCtx struct {
	Ctx *Context
}

func (quickCtx) Generate(rng *rand.Rand, _ int) reflect.Value {
	db := testdb.Random(rng, testdb.RandomConfig{MaxGroups: 8, MaxPerGroup: 3, AllowNulls: true})
	m := db.NumGroups()
	spec := Spec{Costs: make([]int, m), SCProbs: make([]float64, m)}
	for l := 0; l < m; l++ {
		spec.Costs[l] = 1 + rng.Intn(8)
		spec.SCProbs[l] = rng.Float64()
		if rng.Intn(5) == 0 {
			spec.SCProbs[l] = 0
		}
		if rng.Intn(5) == 0 {
			spec.SCProbs[l] = 1
		}
	}
	k := 1 + rng.Intn(m)
	budget := rng.Intn(60)
	ctx, err := NewContext(db, k, spec, budget)
	if err != nil {
		panic(err)
	}
	return reflect.ValueOf(quickCtx{Ctx: ctx})
}

// TestQuickPlannersFeasibleAndNonNegative: every planner returns a plan
// within budget whose expected improvement is >= 0 and <= |S|.
func TestQuickPlannersFeasibleAndNonNegative(t *testing.T) {
	f := func(q quickCtx, seed int64) bool {
		ctx := q.Ctx
		rng := rand.New(rand.NewSource(seed))
		plans := make([]Plan, 0, 4)
		for _, planner := range []PlannerFunc{DPContext, GreedyContext} {
			p, err := planner(bg, ctx)
			if err != nil {
				return false
			}
			plans = append(plans, p)
		}
		for _, planner := range []randPlanner{RandUContext, RandPContext} {
			p, err := planner(bg, ctx, rng)
			if err != nil {
				return false
			}
			plans = append(plans, p)
		}
		for _, p := range plans {
			if p.TotalCost(ctx.Spec) > ctx.Budget {
				return false
			}
			imp := ExpectedImprovement(ctx, p)
			if imp < -1e-12 || imp > -ctx.Eval.S+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDPDominatesAll: DP's expected improvement is the maximum among
// all planners (it is the exact optimum).
func TestQuickDPDominatesAll(t *testing.T) {
	f := func(q quickCtx, seed int64) bool {
		ctx := q.Ctx
		dpPlan, err := DPContext(bg, ctx)
		if err != nil {
			return false
		}
		best := ExpectedImprovement(ctx, dpPlan)
		gr, err := GreedyContext(bg, ctx)
		if err != nil {
			return false
		}
		if ExpectedImprovement(ctx, gr) > best+1e-9 {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		ru, err := RandUContext(bg, ctx, rng)
		if err != nil {
			return false
		}
		if ExpectedImprovement(ctx, ru) > best+1e-9 {
			return false
		}
		rp, err := RandPContext(bg, ctx, rng)
		if err != nil {
			return false
		}
		return ExpectedImprovement(ctx, rp) <= best+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDPMonotoneInBudget: more budget never hurts the optimum.
func TestQuickDPMonotoneInBudget(t *testing.T) {
	f := func(q quickCtx) bool {
		ctx := q.Ctx
		prev := -1.0
		for _, c := range []int{0, 2, 5, 10, 25, 60} {
			sub := *ctx
			sub.Budget = c
			p, err := DPContext(bg, &sub)
			if err != nil {
				return false
			}
			imp := ExpectedImprovement(&sub, p)
			if imp < prev-1e-9 {
				return false
			}
			prev = imp
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickImprovementAdditiveOverGroups: Theorem 2 is a sum of per-x-tuple
// terms, so a plan's improvement equals the sum of its single-x-tuple
// restrictions.
func TestQuickImprovementAdditiveOverGroups(t *testing.T) {
	f := func(q quickCtx, opsRaw []uint8) bool {
		ctx := q.Ctx
		plan := Plan{}
		for i, raw := range opsRaw {
			l := i % ctx.DB.NumGroups()
			plan[l] += int(raw % 4)
		}
		total := ExpectedImprovement(ctx, plan)
		var sum numeric.Kahan
		for l, ops := range plan {
			if ops == 0 {
				continue
			}
			sum.Add(ExpectedImprovement(ctx, Plan{l: ops}))
		}
		return numeric.AlmostEqual(total, sum.Sum(), 1e-10, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickExecuteInvariants: simulation spends no more than planned,
// never exceeds the budget, and cleaned x-tuples become certain.
func TestQuickExecuteInvariants(t *testing.T) {
	f := func(q quickCtx, seed int64) bool {
		ctx := q.Ctx
		plan, err := GreedyContext(bg, ctx)
		if err != nil {
			return false
		}
		out, err := Execute(ctx, plan, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		if out.CostUsed > out.CostPlanned || out.OpsUsed > out.OpsPlanned {
			return false
		}
		if out.CostPlanned > ctx.Budget {
			return false
		}
		for l := range out.Choices {
			g, err := out.DB.Group(l)
			if err != nil || !g.Certain() {
				return false
			}
		}
		return out.DB.NumGroups() == ctx.DB.NumGroups()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
