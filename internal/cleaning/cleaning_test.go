package cleaning

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"testing"

	"github.com/probdb/topkclean/internal/numeric"
	"github.com/probdb/topkclean/internal/quality"
	"github.com/probdb/topkclean/internal/testdb"
	"github.com/probdb/topkclean/internal/uncertain"
)

// bg is the context the tests hand the planners: a test owns its
// lifecycle, so nothing above it needs to cancel.
var bg = context.Background()

// randPlanner is the signature of the random baselines, RandUContext and
// RandPContext.
type randPlanner func(context.Context, *Context, *rand.Rand) (Plan, error)

func ctxUDB1(t *testing.T, budget int, spec Spec) *Context {
	t.Helper()
	db := testdb.UDB1()
	if spec.Costs == nil {
		spec = UniformSpec(db.NumGroups(), 1, 0.8)
	}
	ctx, err := NewContext(db, 2, spec, budget)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func TestSpecValidate(t *testing.T) {
	s := UniformSpec(3, 1, 0.5)
	if err := s.Validate(3); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(4); !errors.Is(err, ErrSpecSize) {
		t.Fatalf("size mismatch: %v", err)
	}
	bad := UniformSpec(3, 1, 0.5)
	bad.Costs[1] = 0
	if err := bad.Validate(3); !errors.Is(err, ErrBadCost) {
		t.Fatalf("zero cost: %v", err)
	}
	bad = UniformSpec(3, 1, 0.5)
	bad.SCProbs[2] = 1.5
	if err := bad.Validate(3); !errors.Is(err, ErrBadSCProb) {
		t.Fatalf("sc-prob > 1: %v", err)
	}
	bad = UniformSpec(3, 1, 0.5)
	bad.SCProbs[0] = math.NaN()
	if err := bad.Validate(3); !errors.Is(err, ErrBadSCProb) {
		t.Fatalf("NaN sc-prob: %v", err)
	}
	// The uniform form: a nil array takes the scalar beside it, checked in
	// O(1) whatever m is.
	for _, m := range []int{1, 4, 1 << 40} {
		if err := (Spec{Cost: 2, SCProb: 0.5}).Validate(m); err != nil {
			t.Fatalf("uniform spec, m=%d: %v", m, err)
		}
	}
	for _, c := range []struct {
		spec Spec
		want error
	}{
		{Spec{}, ErrBadCost},
		{Spec{Cost: 1, SCProb: 1.5}, ErrBadSCProb},
		{Spec{Cost: 1, SCProb: math.NaN()}, ErrBadSCProb},
		{Spec{Cost: 1, SCProb: 0.5, Costs: []int{1, 1}}, ErrSpecSize},
		{Spec{Costs: []int{1, 1, 1}, SCProbs: []float64{1}}, ErrSpecSize},
		{Spec{Costs: []int{1, 1, 1}}, nil}, // a uniform sc-probability 0 is valid
	} {
		if err := c.spec.Validate(3); !errors.Is(err, c.want) {
			t.Fatalf("%+v: %v, want %v", c.spec, err, c.want)
		}
	}
}

// TestUniformSpecPlansLikeArrays: a spec without arrays plans, prices and
// executes with the bits of the equal per-x-tuple arrays.
func TestUniformSpecPlansLikeArrays(t *testing.T) {
	db := testdb.UDB1()
	m := db.NumGroups()
	for _, budget := range []int{3, 10, 40} {
		arr, err := NewContext(db, 2, UniformSpec(m, 2, 0.6), budget)
		if err != nil {
			t.Fatal(err)
		}
		uni := *arr
		uni.Spec = Spec{Cost: 2, SCProb: 0.6}
		for name, plan := range map[string]func(context.Context, *Context) (Plan, error){
			"dp":     DPContext,
			"greedy": GreedyContext,
			"randp": func(ctx context.Context, c *Context) (Plan, error) {
				return RandPContext(ctx, c, rand.New(rand.NewSource(3)))
			},
			"randu": func(ctx context.Context, c *Context) (Plan, error) {
				return RandUContext(ctx, c, rand.New(rand.NewSource(3)))
			},
		} {
			pa, err := plan(bg, arr)
			if err != nil {
				t.Fatal(err)
			}
			pu, err := plan(bg, &uni)
			if err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(pa, pu) {
				t.Fatalf("%s, budget %d: uniform plan %v, arrays %v", name, budget, pu, pa)
			}
			if pa.TotalCost(arr.Spec) != pu.TotalCost(uni.Spec) {
				t.Fatalf("%s, budget %d: cost %d vs %d", name, budget, pu.TotalCost(uni.Spec), pa.TotalCost(arr.Spec))
			}
			ia, iu := ExpectedImprovement(arr, pa), ExpectedImprovement(&uni, pu)
			if math.Float64bits(ia) != math.Float64bits(iu) {
				t.Fatalf("%s, budget %d: improvement %v vs %v", name, budget, iu, ia)
			}
			oa, err := Execute(arr, pa, rand.New(rand.NewSource(9)))
			if err != nil {
				t.Fatal(err)
			}
			ou, err := Execute(&uni, pu, rand.New(rand.NewSource(9)))
			if err != nil {
				t.Fatal(err)
			}
			if oa.OpsUsed != ou.OpsUsed || oa.CostUsed != ou.CostUsed || math.Float64bits(oa.NewQuality) != math.Float64bits(ou.NewQuality) {
				t.Fatalf("%s, budget %d: outcome %+v vs %+v", name, budget, ou, oa)
			}
		}
	}
}

func TestPlanAccounting(t *testing.T) {
	spec := Spec{Costs: []int{2, 5, 1}, SCProbs: []float64{0.5, 0.5, 0.5}}
	plan := Plan{0: 3, 2: 4}
	if got := plan.TotalCost(spec); got != 3*2+4*1 {
		t.Fatalf("TotalCost = %d, want 10", got)
	}
	if got := plan.Ops(); got != 7 {
		t.Fatalf("Ops = %d, want 7", got)
	}
	if got := plan.Groups(); got != 2 {
		t.Fatalf("Groups = %d, want 2", got)
	}
}

// TestPaperCleaningExample reproduces the Section I narrative: cleaning S3
// of udb1 successfully yields udb2, whose quality is higher.
func TestPaperCleaningExample(t *testing.T) {
	db := testdb.UDB1()
	ev, err := quality.TP(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Force a successful clean of S3 (group 2) resolving to t5 (index 1).
	db2, err := db.Cleaned(CleanChoices{2: 1})
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := quality.TP(db2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(ev2.S, -1.8522414936853613, 1e-9, 1e-9) {
		t.Fatalf("cleaned quality = %v, want udb2's -1.8522...", ev2.S)
	}
	if ev2.S <= ev.S {
		t.Fatal("cleaning S3 should improve quality")
	}
}

// TestTheorem2AgainstExactEnumeration is the central correctness check of
// the cleaning model: the closed form of Theorem 2 must equal the
// first-principles expectation over all cleaned-outcome vectors.
func TestTheorem2AgainstExactEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		db := testdb.Random(rng, testdb.RandomConfig{MaxGroups: 4, MaxPerGroup: 3, AllowNulls: true})
		m := db.NumGroups()
		k := 1 + rng.Intn(m)
		spec := Spec{Costs: make([]int, m), SCProbs: make([]float64, m)}
		for l := 0; l < m; l++ {
			spec.Costs[l] = 1 + rng.Intn(5)
			spec.SCProbs[l] = rng.Float64()
		}
		ctx, err := NewContext(db, k, spec, 1000)
		if err != nil {
			t.Fatal(err)
		}
		// Random plan over a random subset of x-tuples.
		plan := Plan{}
		for l := 0; l < m; l++ {
			if rng.Intn(2) == 0 {
				plan[l] = 1 + rng.Intn(3)
			}
		}
		got := ExpectedImprovement(ctx, plan)
		want, err := ExactExpectedImprovement(ctx, plan)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !numeric.AlmostEqual(got, want, 1e-8, 1e-8) {
			t.Fatalf("trial %d (k=%d, plan=%v): Theorem2=%v exact=%v", trial, k, plan, got, want)
		}
		if got < -1e-12 {
			t.Fatalf("trial %d: negative expected improvement %v", trial, got)
		}
	}
}

func TestMonteCarloConvergesToTheorem2(t *testing.T) {
	ctx := ctxUDB1(t, 100, Spec{})
	plan := Plan{0: 2, 2: 3}
	want := ExpectedImprovement(ctx, plan)
	rng := rand.New(rand.NewSource(4))
	got, err := MonteCarloImprovement(ctx, plan, rng, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 0.05 {
		t.Fatalf("Monte-Carlo %v vs Theorem 2 %v", got, want)
	}
}

func TestMarginalGainLemma4Monotonicity(t *testing.T) {
	// b(l,D,j) decreases in j for any gain <= 0 and sc-prob in [0,1].
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 500; trial++ {
		gain := -rng.Float64() * 10
		p := rng.Float64()
		prev := math.Inf(1)
		for j := 1; j <= 20; j++ {
			b := MarginalGain(gain, p, j)
			if b < 0 {
				t.Fatalf("b(%v,%v,%d) = %v < 0", gain, p, j, b)
			}
			if b > prev+1e-15 {
				t.Fatalf("b not monotone: b(%d)=%v > b(%d)=%v", j, b, j-1, prev)
			}
			prev = b
		}
	}
	if MarginalGain(-1, 0.5, 0) != 0 {
		t.Fatal("b(l,D,0) must be 0")
	}
}

func TestMarginalGainsSumToImprovement(t *testing.T) {
	// Equation 22: I(X,M) = sum_l sum_{j=1..M_l} b(l,D,j).
	ctx := ctxUDB1(t, 100, Spec{})
	plan := Plan{0: 3, 1: 2, 2: 5}
	var sum float64
	for l, m := range plan {
		for j := 1; j <= m; j++ {
			sum += MarginalGain(ctx.Eval.Gain(l), ctx.Spec.SCProbs[l], j)
		}
	}
	if got := ExpectedImprovement(ctx, plan); !numeric.AlmostEqual(got, sum, 1e-12, 1e-12) {
		t.Fatalf("Eq 22 violated: I=%v sum b=%v", got, sum)
	}
}

// TestDPOptimalOnExhaustiveSearch compares DP with brute-force enumeration
// of every feasible plan on tiny instances.
func TestDPOptimalOnExhaustiveSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 30; trial++ {
		db := testdb.Random(rng, testdb.RandomConfig{MaxGroups: 3, MaxPerGroup: 3, AllowNulls: false})
		m := db.NumGroups()
		k := 1 + rng.Intn(m)
		spec := Spec{Costs: make([]int, m), SCProbs: make([]float64, m)}
		for l := 0; l < m; l++ {
			spec.Costs[l] = 1 + rng.Intn(3)
			spec.SCProbs[l] = 0.2 + 0.8*rng.Float64()
		}
		budget := 1 + rng.Intn(8)
		ctx, err := NewContext(db, k, spec, budget)
		if err != nil {
			t.Fatal(err)
		}
		dpPlan, err := DPContext(bg, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if dpPlan.TotalCost(spec) > budget {
			t.Fatalf("trial %d: DP plan exceeds budget", trial)
		}
		dpVal := ExpectedImprovement(ctx, dpPlan)
		bestVal := bruteForceBest(ctx, m, budget)
		if dpVal < bestVal-1e-9 {
			t.Fatalf("trial %d: DP=%v < exhaustive=%v", trial, dpVal, bestVal)
		}
	}
}

// bruteForceBest enumerates all (M_1..M_m) with total cost <= budget.
func bruteForceBest(ctx *Context, m, budget int) float64 {
	best := 0.0
	plan := Plan{}
	var rec func(l, remaining int)
	rec = func(l, remaining int) {
		if l == m {
			if v := ExpectedImprovement(ctx, plan); v > best {
				best = v
			}
			return
		}
		rec(l+1, remaining)
		c := ctx.Spec.Costs[l]
		for j := 1; j*c <= remaining; j++ {
			plan[l] = j
			rec(l+1, remaining-j*c)
		}
		delete(plan, l)
	}
	rec(0, budget)
	return best
}

func TestGreedyCloseToDP(t *testing.T) {
	// Figure 6(a)'s main observation: Greedy comes close to DP.
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 25; trial++ {
		db := testdb.Random(rng, testdb.RandomConfig{MaxGroups: 8, MaxPerGroup: 4, AllowNulls: false})
		m := db.NumGroups()
		k := 1 + rng.Intn(m)
		spec := Spec{Costs: make([]int, m), SCProbs: make([]float64, m)}
		for l := 0; l < m; l++ {
			spec.Costs[l] = 1 + rng.Intn(10)
			spec.SCProbs[l] = rng.Float64()
		}
		ctx, err := NewContext(db, k, spec, 30)
		if err != nil {
			t.Fatal(err)
		}
		dpPlan, err := DPContext(bg, ctx)
		if err != nil {
			t.Fatal(err)
		}
		grPlan, err := GreedyContext(bg, ctx)
		if err != nil {
			t.Fatal(err)
		}
		dpVal := ExpectedImprovement(ctx, dpPlan)
		grVal := ExpectedImprovement(ctx, grPlan)
		if grVal > dpVal+1e-9 {
			t.Fatalf("trial %d: greedy (%v) beat the optimum (%v)?", trial, grVal, dpVal)
		}
		// Greedy is not optimal but should not collapse; for knapsacks with
		// item values bounded by the largest single item, greedy achieves at
		// least half the optimum when it can take the best item.
		if dpVal > 1e-9 && grVal < 0.4*dpVal {
			t.Fatalf("trial %d: greedy %v far below DP %v", trial, grVal, dpVal)
		}
	}
}

func TestPlannersRespectBudgetAndCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 30; trial++ {
		db := testdb.Random(rng, testdb.RandomConfig{MaxGroups: 6, MaxPerGroup: 3, AllowNulls: true})
		m := db.NumGroups()
		k := 1 + rng.Intn(m)
		spec := Spec{Costs: make([]int, m), SCProbs: make([]float64, m)}
		for l := 0; l < m; l++ {
			spec.Costs[l] = 1 + rng.Intn(10)
			spec.SCProbs[l] = rng.Float64()
			if rng.Intn(4) == 0 {
				spec.SCProbs[l] = 0 // cleaning can never succeed
			}
		}
		budget := rng.Intn(50)
		ctx, err := NewContext(db, k, spec, budget)
		if err != nil {
			t.Fatal(err)
		}
		for name, plan := range map[string]Plan{
			"DP":     mustPlan(t, DPContext, ctx),
			"Greedy": mustPlan(t, GreedyContext, ctx),
			"RandU":  mustRandPlan(t, RandUContext, ctx, rng),
			"RandP":  mustRandPlan(t, RandPContext, ctx, rng),
		} {
			if c := plan.TotalCost(spec); c > budget {
				t.Fatalf("trial %d: %s spent %d > budget %d", trial, name, c, budget)
			}
			for l, ops := range plan {
				if ops < 0 {
					t.Fatalf("trial %d: %s has negative ops", trial, name)
				}
				if l < 0 || l >= m {
					t.Fatalf("trial %d: %s cleaned nonexistent x-tuple %d", trial, name, l)
				}
			}
		}
		// DP and Greedy must never touch sc-prob-0 or zero-gain x-tuples.
		for name, plan := range map[string]Plan{
			"DP":     mustPlan(t, DPContext, ctx),
			"Greedy": mustPlan(t, GreedyContext, ctx),
		} {
			for l, ops := range plan {
				if ops > 0 && spec.SCProbs[l] == 0 {
					t.Fatalf("trial %d: %s cleaned hopeless x-tuple", trial, name)
				}
				if ops > 0 && ctx.Eval.Gain(l) >= -gainFloor {
					t.Fatalf("trial %d: %s cleaned zero-gain x-tuple (Lemma 5)", trial, name)
				}
			}
		}
	}
}

func mustPlan(t *testing.T, f PlannerFunc, ctx *Context) Plan {
	t.Helper()
	p, err := f(bg, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustRandPlan(t *testing.T, f randPlanner, ctx *Context, rng *rand.Rand) Plan {
	t.Helper()
	p, err := f(bg, ctx, rng)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPlannerEffectivenessOrdering checks Figure 6(a)'s ordering on a
// moderate synthetic instance: DP >= Greedy >= RandP >= RandU (the random
// baselines averaged over seeds).
func TestPlannerEffectivenessOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	db := testdb.Random(rng, testdb.RandomConfig{MaxGroups: 30, MaxPerGroup: 5, AllowNulls: false})
	m := db.NumGroups()
	spec := Spec{Costs: make([]int, m), SCProbs: make([]float64, m)}
	for l := 0; l < m; l++ {
		spec.Costs[l] = 1 + rng.Intn(10)
		spec.SCProbs[l] = rng.Float64()
	}
	k := min(5, m)
	ctx, err := NewContext(db, k, spec, 40)
	if err != nil {
		t.Fatal(err)
	}
	dpVal := ExpectedImprovement(ctx, mustPlan(t, DPContext, ctx))
	grVal := ExpectedImprovement(ctx, mustPlan(t, GreedyContext, ctx))
	avg := func(f randPlanner) float64 {
		var sum float64
		const reps = 40
		for i := 0; i < reps; i++ {
			r := rand.New(rand.NewSource(int64(1000 + i)))
			sum += ExpectedImprovement(ctx, mustRandPlan(t, f, ctx, r))
		}
		return sum / reps
	}
	ruVal := avg(RandUContext)
	rpVal := avg(RandPContext)
	if !(dpVal >= grVal-1e-9) {
		t.Fatalf("DP (%v) < Greedy (%v)", dpVal, grVal)
	}
	if !(grVal >= rpVal) {
		t.Fatalf("Greedy (%v) < RandP (%v)", grVal, rpVal)
	}
	if !(rpVal > ruVal) {
		t.Fatalf("RandP (%v) <= RandU (%v)", rpVal, ruVal)
	}
	if dpVal <= 0 {
		t.Fatal("DP found no improvement on an uncertain database")
	}
}

func TestExecuteSimulator(t *testing.T) {
	ctx := ctxUDB1(t, 100, Spec{})
	plan := Plan{0: 3, 2: 2}
	rng := rand.New(rand.NewSource(10))
	out, err := Execute(ctx, plan, rng)
	if err != nil {
		t.Fatal(err)
	}
	if out.OpsPlanned != 5 || out.CostPlanned != 5 {
		t.Fatalf("planned accounting wrong: %+v", out)
	}
	if out.OpsUsed > out.OpsPlanned || out.CostUsed > out.CostPlanned {
		t.Fatalf("used more than planned: %+v", out)
	}
	if out.DB == nil || !out.DB.Built() {
		t.Fatal("no cleaned database returned")
	}
	if out.DB.NumGroups() != ctx.DB.NumGroups() {
		t.Fatal("cleaning changed the x-tuple count")
	}
	for l := range out.Choices {
		g, _ := out.DB.Group(l)
		if !g.Certain() {
			t.Fatalf("successfully cleaned x-tuple %d is not certain", l)
		}
	}
	if !numeric.AlmostEqual(out.Improvement, out.NewQuality-ctx.Eval.S, 1e-12, 1e-12) {
		t.Fatal("improvement accounting inconsistent")
	}
}

func TestExecuteEarlyStopSavesCost(t *testing.T) {
	// With sc-probability 1 every first attempt succeeds, so a plan with
	// M_l = 5 uses exactly one op per x-tuple.
	db := testdb.UDB1()
	spec := UniformSpec(db.NumGroups(), 2, 1)
	ctx, err := NewContext(db, 2, spec, 100)
	if err != nil {
		t.Fatal(err)
	}
	plan := Plan{0: 5, 1: 5}
	out, err := Execute(ctx, plan, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if out.OpsUsed != 2 || out.CostUsed != 4 {
		t.Fatalf("ops=%d cost=%d, want 2 ops / cost 4", out.OpsUsed, out.CostUsed)
	}
	if len(out.Choices) != 2 {
		t.Fatalf("both x-tuples should be cleaned: %v", out.Choices)
	}
}

func TestExecuteZeroSCProbNeverSucceeds(t *testing.T) {
	db := testdb.UDB1()
	spec := UniformSpec(db.NumGroups(), 1, 0)
	ctx, err := NewContext(db, 2, spec, 100)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Execute(ctx, Plan{0: 10}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Choices) != 0 || out.Improvement != 0 {
		t.Fatalf("cleaning with sc-prob 0 changed something: %+v", out)
	}
	if out.OpsUsed != 10 {
		t.Fatalf("all 10 futile ops should be spent, got %d", out.OpsUsed)
	}
}

func TestExecuteRejectsOverBudget(t *testing.T) {
	ctx := ctxUDB1(t, 3, Spec{})
	if _, err := Execute(ctx, Plan{0: 10}, rand.New(rand.NewSource(3))); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("err = %v, want ErrOverBudget", err)
	}
}

// TestExecuteRejectsMalformedPlans: an explicit plan is checked before the
// agent draws anything. An x-tuple index outside [0, m) or a negative
// operation count is ErrBadPlan; a count whose cost would overflow int is
// ErrOverBudget rather than a wrapped-negative cost under the budget.
func TestExecuteRejectsMalformedPlans(t *testing.T) {
	db := testdb.UDB1()
	m := db.NumGroups()
	ctx, err := NewContext(db, 2, UniformSpec(m, 2, 1), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		plan Plan
		want error
	}{
		{"index past the end", Plan{m: 1}, ErrBadPlan},
		{"negative index", Plan{-1: 1}, ErrBadPlan},
		{"negative ops", Plan{0: -1, 1: 3}, ErrBadPlan},
		{"overflowing count", Plan{0: 1 << 62}, ErrOverBudget},
		{"overflow on a later entry", Plan{0: 1, 1: math.MaxInt / 2}, ErrOverBudget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Execute(ctx, tc.plan, rand.New(rand.NewSource(3))); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestDPWithLargeBudgetSaturates(t *testing.T) {
	// With an enormous budget and nonzero sc-probs the expected improvement
	// approaches |S| (Figure 6(a)'s saturation).
	db := testdb.UDB1()
	spec := UniformSpec(db.NumGroups(), 1, 0.5)
	ctx, err := NewContext(db, 2, spec, 5000)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := DPContext(bg, ctx)
	if err != nil {
		t.Fatal(err)
	}
	imp := ExpectedImprovement(ctx, plan)
	if math.Abs(imp-(-ctx.Eval.S)) > 1e-6 {
		t.Fatalf("saturated improvement %v, want ~|S| = %v", imp, -ctx.Eval.S)
	}
}

func TestGreedyPrefersCheapEffectiveXTuples(t *testing.T) {
	// Two identical x-tuples except cost: greedy must clean the cheap one
	// first.
	db := uncertain.New()
	add := func(name string, hi float64) {
		err := db.AddXTuple(name,
			uncertain.Tuple{ID: name + "a", Attrs: []float64{hi}, Prob: 0.5},
			uncertain.Tuple{ID: name + "b", Attrs: []float64{hi - 1}, Prob: 0.5})
		if err != nil {
			t.Fatal(err)
		}
	}
	add("cheap", 10)
	add("dear", 10.5)
	if err := db.Build(uncertain.ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	spec := Spec{Costs: []int{1, 10}, SCProbs: []float64{0.5, 0.5}}
	ctx, err := NewContext(db, 1, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := GreedyContext(bg, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if plan[0] != 1 || plan[1] != 0 {
		t.Fatalf("greedy plan = %v, want one op on the cheap x-tuple", plan)
	}
}

func TestMinBudgetForTarget(t *testing.T) {
	db := testdb.UDB1()
	spec := UniformSpec(db.NumGroups(), 2, 0.7)
	ctx, err := NewContext(db, 2, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	target := ctx.Eval.S + 0.5*(-ctx.Eval.S) // halve the deficit
	budget, plan, err := MinBudgetForTargetContext(bg, ctx, target, 100000, DPContext)
	if err != nil {
		t.Fatal(err)
	}
	// The returned budget reaches the target...
	sub := *ctx
	sub.Budget = budget
	if imp := ExpectedImprovement(&sub, plan); ctx.Eval.S+imp < target-1e-9 {
		t.Fatalf("budget %d gives %v, below target %v", budget, ctx.Eval.S+imp, target)
	}
	// ...and one unit less does not.
	if budget > 0 {
		sub.Budget = budget - 1
		p2, err := DPContext(bg, &sub)
		if err != nil {
			t.Fatal(err)
		}
		if imp := ExpectedImprovement(&sub, p2); ctx.Eval.S+imp >= target-1e-9 {
			t.Fatalf("budget %d already reaches the target; %d is not minimal", budget-1, budget)
		}
	}
}

func TestMinBudgetForTargetEdgeCases(t *testing.T) {
	db := testdb.UDB1()
	spec := UniformSpec(db.NumGroups(), 1, 0.5)
	ctx, err := NewContext(db, 2, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Already above target: zero budget.
	b, plan, err := MinBudgetForTargetContext(bg, ctx, ctx.Eval.S-1, 1000, GreedyContext)
	if err != nil || b != 0 || len(plan) != 0 {
		t.Fatalf("already-satisfied target: b=%d plan=%v err=%v", b, plan, err)
	}
	// Positive target is impossible.
	if _, _, err := MinBudgetForTargetContext(bg, ctx, 0.5, 1000, GreedyContext); err == nil {
		t.Fatal("positive target must be rejected")
	}
	// Unreachable: hopeless sc-probs.
	hopeless := UniformSpec(db.NumGroups(), 1, 0)
	ctx2, err := NewContext(db, 2, hopeless, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := MinBudgetForTargetContext(bg, ctx2, -0.1, 1000, GreedyContext); !errors.Is(err, ErrTargetUnreachable) {
		t.Fatalf("err = %v, want ErrTargetUnreachable", err)
	}
	// A non-positive budget cap has no valid probe: rejected up front, even
	// when the target is already satisfied.
	for _, cap := range []int{0, -5} {
		if _, _, err := MinBudgetForTargetContext(bg, ctx, ctx.Eval.S-1, cap, GreedyContext); !errors.Is(err, ErrBadMaxBudget) {
			t.Fatalf("maxBudget=%d: err = %v, want ErrBadMaxBudget", cap, err)
		}
		if _, _, err := MinBudgetForTargetContext(bg, ctx, ctx.Eval.S/2, cap, GreedyContext); !errors.Is(err, ErrBadMaxBudget) {
			t.Fatalf("maxBudget=%d: err = %v, want ErrBadMaxBudget", cap, err)
		}
	}
}

// TestExecuteApplyMatchesExecute: the in-place execution path must make the
// identical draws as Execute and leave the live database in the same state
// Execute's rebuilt copy reaches.
func TestExecuteApplyMatchesExecute(t *testing.T) {
	ctx := ctxUDB1(t, 10, Spec{})
	plan := Plan{0: 2, 1: 1, 2: 3}
	want, err := Execute(ctx, plan, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExecuteApplyOn(ctx.DB, ctx, plan, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	if got.DB != ctx.DB {
		t.Fatal("ExecuteApplyOn must return the live database")
	}
	if len(got.Choices) != len(want.Choices) {
		t.Fatalf("choices %v, Execute chose %v", got.Choices, want.Choices)
	}
	for l, c := range want.Choices {
		if got.Choices[l] != c {
			t.Fatalf("x-tuple %d: choice %d, Execute chose %d", l, got.Choices[l], c)
		}
	}
	gs, ws := ctx.DB.Sorted(), want.DB.Sorted()
	if len(gs) != len(ws) {
		t.Fatalf("live db has %d alternatives, Execute's copy %d", len(gs), len(ws))
	}
	for i := range gs {
		if gs[i].ID != ws[i].ID || gs[i].Prob != ws[i].Prob {
			t.Fatalf("rank %d: live (%s, %v), copy (%s, %v)", i, gs[i].ID, gs[i].Prob, ws[i].ID, ws[i].Prob)
		}
	}
	if err := ctx.DB.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleContextRejectedEverywhere: a context stamped with an older
// database version must not clean, simulate, verify, or plan anything —
// its gains no longer describe the database.
func TestStaleContextRejectedEverywhere(t *testing.T) {
	ctx := ctxUDB1(t, 10, Spec{})
	ctx.Version = ctx.DB.Version()
	if err := ctx.DB.Reweight(0, []float64{0.5, 0.4}); err != nil {
		t.Fatal(err)
	}
	plan := Plan{0: 1}
	cases := map[string]func() error{
		"ExecuteApplyOn": func() error {
			_, err := ExecuteApplyOn(ctx.DB, ctx, plan, rand.New(rand.NewSource(1)))
			return err
		},
		"Execute": func() error {
			_, err := Execute(ctx, plan, rand.New(rand.NewSource(1)))
			return err
		},
		"MonteCarlo": func() error {
			_, err := MonteCarloImprovementParallelContext(bg, ctx, plan, 1, 10, 2)
			return err
		},
		"Candidates": func() error {
			_, err := Candidates(ctx)
			return err
		},
		"Greedy": func() error {
			_, err := GreedyContext(bg, ctx)
			return err
		},
	}
	for name, call := range cases {
		if err := call(); !errors.Is(err, ErrStaleContext) {
			t.Errorf("%s: err = %v, want ErrStaleContext", name, err)
		}
	}
}

func TestImprovementIncreasesWithSCProb(t *testing.T) {
	// Figure 6(c)'s trend: higher average sc-probability, higher expected
	// improvement, for every planner.
	db := testdb.UDB1()
	prev := map[string]float64{}
	for _, p := range []float64{0.2, 0.5, 0.8, 1.0} {
		spec := UniformSpec(db.NumGroups(), 1, p)
		ctx, err := NewContext(db, 2, spec, 6)
		if err != nil {
			t.Fatal(err)
		}
		vals := map[string]float64{
			"DP":     ExpectedImprovement(ctx, mustPlan(t, DPContext, ctx)),
			"Greedy": ExpectedImprovement(ctx, mustPlan(t, GreedyContext, ctx)),
		}
		for name, v := range vals {
			if last, ok := prev[name]; ok && v < last-1e-9 {
				t.Fatalf("%s improvement decreased with sc-prob: %v -> %v", name, last, v)
			}
			prev[name] = v
		}
	}
}

func TestContextValidation(t *testing.T) {
	db := testdb.UDB1()
	if _, err := NewContext(db, 2, UniformSpec(2, 1, 0.5), 10); !errors.Is(err, ErrSpecSize) {
		t.Fatalf("short spec: %v", err)
	}
	if _, err := NewContext(db, 2, UniformSpec(4, 1, 0.5), -1); !errors.Is(err, ErrBadBudget) {
		t.Fatalf("negative budget: %v", err)
	}
	ctx := ctxUDB1(t, 10, Spec{})
	ctx.Eval = nil
	if err := ctx.Validate(); !errors.Is(err, ErrNilEval) {
		t.Fatalf("nil eval: %v", err)
	}
}

func TestZeroBudgetYieldsEmptyPlans(t *testing.T) {
	ctx := ctxUDB1(t, 0, Spec{})
	rng := rand.New(rand.NewSource(1))
	for name, plan := range map[string]Plan{
		"DP":     mustPlan(t, DPContext, ctx),
		"Greedy": mustPlan(t, GreedyContext, ctx),
		"RandU":  mustRandPlan(t, RandUContext, ctx, rng),
		"RandP":  mustRandPlan(t, RandPContext, ctx, rng),
	} {
		if plan.Ops() != 0 {
			t.Fatalf("%s produced ops with zero budget: %v", name, plan)
		}
	}
}

// TestRandPSelectionFrequenciesMatchWeights: RandP picks x-tuple l with
// probability proportional to sum of its tuples' top-k probabilities. With
// unit costs and a large budget, operation counts estimate those
// frequencies.
func TestRandPSelectionFrequenciesMatchWeights(t *testing.T) {
	db := testdb.UDB1()
	spec := UniformSpec(db.NumGroups(), 1, 0.5)
	ctx, err := NewContext(db, 2, spec, 40000)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := RandPContext(bg, ctx, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	// Weights: per-group sums of top-2 probabilities.
	info := ctx.Eval.Info
	weights := make([]float64, db.NumGroups())
	var total float64
	for _, tp := range db.Sorted() {
		weights[tp.Group] += info.P(tp.Index())
		total += info.P(tp.Index())
	}
	ops := plan.Ops()
	if ops < 39000 {
		t.Fatalf("budget underused: %d ops", ops)
	}
	for l, w := range weights {
		want := w / total
		got := float64(plan[l]) / float64(ops)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("x-tuple %d: frequency %v, want %v", l, got, want)
		}
	}
}

// TestRandPStopsAtProcessedPrefix: RandP's weights walk only the
// processed prefix. On a database where Lemma 2 stops the scan early, its
// plans must equal those drawn from weights that walk all n positions.
func TestRandPStopsAtProcessedPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := uncertain.New()
	for g := 0; g < 120; g++ {
		// Every third x-tuple is certain, so the scan terminates early.
		mass := 1.0
		if g%3 != 0 {
			mass = 0.3 + 0.6*rng.Float64()
		}
		n := 1 + rng.Intn(3)
		ts := make([]uncertain.Tuple, n)
		for i := range ts {
			ts[i] = uncertain.Tuple{ID: fmt.Sprintf("g%d.%d", g, i), Attrs: []float64{rng.Float64() * 100}, Prob: mass / float64(n)}
		}
		if err := db.AddXTuple(fmt.Sprintf("G%d", g), ts...); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Build(uncertain.ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{3, 8} {
		ctx, err := NewContext(db, k, Spec{Cost: 1, SCProb: 0.6}, 200)
		if err != nil {
			t.Fatal(err)
		}
		info := ctx.Eval.Info
		if info.Processed >= db.NumTuples() {
			t.Fatalf("k=%d: scan processed all %d positions; the test needs early termination", k, info.Processed)
		}
		// The full walk: every position, p_i = 0 past the prefix.
		full := make([]float64, db.NumGroups())
		cur := db.CursorAt(0)
		for i := 0; ; i++ {
			tp := cur.Next()
			if tp == nil {
				break
			}
			full[tp.Group] += info.P(i)
		}
		for seed := int64(0); seed < 5; seed++ {
			got, err := RandPContext(bg, ctx, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			want, err := randomPlan(bg, ctx, rand.New(rand.NewSource(seed)), full)
			if err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(got, want) {
				t.Fatalf("k=%d seed %d: plan %v, full walk %v", k, seed, got, want)
			}
		}
	}
}

// TestRandUSelectionIsUniform: with unit costs, RandU's operation counts
// are near-uniform across all x-tuples, including hopeless ones.
func TestRandUSelectionIsUniform(t *testing.T) {
	db := testdb.UDB1()
	spec := UniformSpec(db.NumGroups(), 1, 0.5)
	ctx, err := NewContext(db, 2, spec, 40000)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := RandUContext(bg, ctx, rand.New(rand.NewSource(78)))
	if err != nil {
		t.Fatal(err)
	}
	ops := plan.Ops()
	want := 1.0 / float64(db.NumGroups())
	for l := 0; l < db.NumGroups(); l++ {
		got := float64(plan[l]) / float64(ops)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("x-tuple %d: frequency %v, want %v", l, got, want)
		}
	}
}

func TestRandUUsesWholeBudgetWithUniformCosts(t *testing.T) {
	ctx := ctxUDB1(t, 17, Spec{})
	plan, err := RandUContext(bg, ctx, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if c := plan.TotalCost(ctx.Spec); c != 17 {
		t.Fatalf("RandU spent %d of 17 with unit costs", c)
	}
}
