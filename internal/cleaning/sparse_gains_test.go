package cleaning

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/probdb/topkclean/internal/numeric"
	"github.com/probdb/topkclean/internal/quality"
	"github.com/probdb/topkclean/internal/testdb"
	"github.com/probdb/topkclean/internal/topkq"
	"github.com/probdb/topkclean/internal/uncertain"
)

// tpDenseReference is the dense TP loop the sparse gains replaced, kept
// verbatim as the reference: GroupGain is a length-m vector indexed by
// group, E a plain length-m scratch array, and the weight is Equation 8
// evaluated exactly as the package does (omegaRef). The sparse evaluation
// must reproduce S and Omega bit for bit, and its gains must be exactly
// this vector's non-zero entries.
func tpDenseReference(db *uncertain.Database, info *topkq.RankInfo) (*quality.Evaluation, error) {
	if !db.Built() {
		return nil, uncertain.ErrNotBuilt
	}
	if info == nil || info.N != db.NumTuples() {
		return nil, fmt.Errorf("quality: rank info does not match database")
	}
	m := db.NumGroups()
	limit0 := info.Processed
	if limit0 > db.NumTuples() {
		limit0 = db.NumTuples()
	}
	ev := &quality.Evaluation{
		Omega:     make([]float64, limit0),
		GroupGain: make([]float64, m),
		Info:      info,
	}
	E := make([]float64, m)
	var s numeric.Kahan
	limit := limit0
	cur := db.CursorAt(0)
	for i := 0; i < limit; i++ {
		t := cur.Next()
		l := t.Group
		E[l] += t.Prob
		p := info.P(i)
		if p == 0 {
			continue
		}
		w := omegaRef(t.Prob, E[l])
		ev.Omega[i] = w
		term := w * p
		ev.GroupGain[l] += term
		s.Add(term)
	}
	ev.S = s.Sum()
	if ev.S > 0 {
		ev.S = 0
	}
	return ev, nil
}

// omegaRef is Equation 8, w_i = log2(e_i) + (Y(1-E_i) - Y(1-E_i+e_i))/e_i,
// with the package's operation order.
func omegaRef(e, Ei float64) float64 {
	a := numeric.Clamp01(1 - Ei)
	b := numeric.Clamp01(1 - Ei + e)
	return numeric.Log2(e) + (numeric.Y(a)-numeric.Y(b))/e
}

// sameGainBits compares two sparse gain vectors entry by entry, values by
// their bit patterns.
func sameGainBits(a, b quality.Gains) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d entries vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Group != b[i].Group || math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return fmt.Errorf("entry %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return nil
}

// checkAgainstDense asserts that ev is the sparse form of the dense
// reference ref: S and Omega bit-identical, the gains exactly ref's
// non-zero entries in ascending group order, and Gain(l) equal to the
// dense entry for every group.
func checkAgainstDense(t *testing.T, label string, ev, ref *quality.Evaluation) {
	t.Helper()
	if math.Float64bits(ev.S) != math.Float64bits(ref.S) {
		t.Fatalf("%s: S = %v, dense %v", label, ev.S, ref.S)
	}
	if len(ev.Omega) != len(ref.Omega) {
		t.Fatalf("%s: %d weights, dense %d", label, len(ev.Omega), len(ref.Omega))
	}
	for i := range ev.Omega {
		if math.Float64bits(ev.Omega[i]) != math.Float64bits(ref.Omega[i]) {
			t.Fatalf("%s: Omega[%d] = %v, dense %v", label, i, ev.Omega[i], ref.Omega[i])
		}
	}
	var want quality.Gains
	for l, g := range ref.GroupGain {
		if g != 0 {
			want = append(want, quality.Gain{Group: l, Value: g})
		}
	}
	if err := sameGainBits(ev.Gains(), want); err != nil {
		t.Fatalf("%s: sparse gains vs dense non-zero entries: %v", label, err)
	}
	for l, g := range ref.GroupGain {
		if math.Float64bits(ev.Gain(l)) != math.Float64bits(g) {
			t.Fatalf("%s: Gain(%d) = %v, dense %v", label, l, ev.Gain(l), g)
		}
	}
	if ev.GroupGain != nil {
		t.Fatalf("%s: deprecated GroupGain is set", label)
	}
}

// TestSparseGainsMatchDenseReference runs TP and the dense reference over
// random databases — small ones with nulls and certain x-tuples, and
// larger ones where Lemma 2 stops the scan early — and over mutation
// histories, where the pooled scratch is reused across passes of
// different group counts.
func TestSparseGainsMatchDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	early := 0
	check := func(label string, db *uncertain.Database, k int) {
		info, err := topkq.TopKProbabilities(db, k)
		if err != nil {
			t.Fatal(err)
		}
		if info.Processed < info.N {
			early++
		}
		ev, err := quality.TPFromInfo(db, info)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := tpDenseReference(db, info)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstDense(t, label, ev, ref)
	}
	for trial := 0; trial < 200; trial++ {
		cfg := testdb.RandomConfig{MaxGroups: 2 + rng.Intn(40), MaxPerGroup: 1 + rng.Intn(4), AllowNulls: true, ScoreTies: rng.Intn(2) == 0}
		db := testdb.Random(rng, cfg)
		check(fmt.Sprintf("trial %d", trial), db, 1+rng.Intn(db.NumGroups()))
	}
	db := testdb.Random(rng, testdb.RandomConfig{MaxGroups: 400, MaxPerGroup: 4, AllowNulls: true})
	for step := 0; step < 60; step++ {
		k := 1 + rng.Intn(min(db.NumGroups(), 12))
		check(fmt.Sprintf("step %d", step), db, k)
		l := rng.Intn(db.NumGroups())
		switch rng.Intn(3) {
		case 0:
			if db.NumGroups() > 20 {
				if err := db.DeleteXTuple(l); err != nil {
					t.Fatal(err)
				}
				continue
			}
			fallthrough
		case 1:
			err := db.InsertXTuple(fmt.Sprintf("ins%d", step),
				uncertain.Tuple{ID: fmt.Sprintf("ins%d.a", step), Attrs: []float64{rng.Float64() * 100}, Prob: 0.2 + 0.6*rng.Float64()})
			if err != nil {
				t.Fatal(err)
			}
		default:
			if err := db.Collapse(l, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if early == 0 {
		t.Fatal("no database stopped its scan early; the sparse prefix was never exercised")
	}
}

// TestPlannersIdenticalOnSparseGains runs every gain-driven planner on
// three views of one evaluation — the sparse evaluation TPFromInfo
// returns, the dense reference (the pre-sparse TP loop's GroupGain
// vector, read through the deprecated field), and a hand-assembled
// evaluation carrying S, Omega, Info and a zeroed GroupGain, the idiom
// the benchmark harness's layer lane uses (GainsOn re-derives its gains
// from Info) — and requires identical plans, candidate lists, minimum
// budgets and Float64bits-identical improvements. It also checks the
// sparse candidate set against the dense candidate scan it replaced. The
// specs mix sc-probabilities of exactly 0 and 1, costs above the budget,
// and budgets well past what the non-zero candidates can absorb.
func TestPlannersIdenticalOnSparseGains(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	planned := 0 // cases whose DP plan cleans something
	for trial := 0; trial < 150; trial++ {
		db := testdb.Random(rng, testdb.RandomConfig{
			MaxGroups: 3 + rng.Intn(30), MaxPerGroup: 1 + rng.Intn(4),
			AllowNulls: true, ScoreTies: rng.Intn(3) == 0,
		})
		m := db.NumGroups()
		k := 1 + rng.Intn(m)
		info, err := topkq.TopKProbabilities(db, k)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := quality.TPFromInfo(db, info)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := tpDenseReference(db, info)
		if err != nil {
			t.Fatal(err)
		}
		evals := map[string]*quality.Evaluation{
			"sparse":  sparse,
			"dense":   {S: ref.S, Omega: ref.Omega, GroupGain: ref.GroupGain},
			"derived": {S: ref.S, Omega: ref.Omega, GroupGain: make([]float64, m), Info: info},
		}
		spec := randomSpec(rng, m)
		nonzero := len(sparse.Gains())
		for _, budget := range []int{0, 1, 1 + rng.Intn(8), 3 * (nonzero + 1) * 6} {
			ctx := &Context{DB: db, K: k, Eval: sparse, Spec: spec, Budget: budget}
			if got, want := ctx.candidates(sparse.Gains()), denseCandidates(ref.GroupGain, spec, budget); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d budget %d: sparse candidates %v, dense scan %v", trial, budget, got, want)
			}
			var want *plannerResults
			seed := rng.Int63()
			for _, name := range []string{"sparse", "dense", "derived"} {
				ctx := &Context{DB: db, K: k, Eval: evals[name], Spec: spec, Budget: budget}
				got := runPlanners(t, ctx, seed)
				if want == nil {
					want = got
					if len(got.Plans["dp"]) > 0 {
						planned++
					}
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d budget %d: %s evaluation differs from sparse:\n got %+v\nwant %+v",
						trial, budget, name, got, want)
				}
			}
		}
	}
	if planned < 100 {
		t.Fatalf("only %d cases produced a non-empty plan", planned)
	}
}

// denseCandidates is the candidate scan over a dense gain vector that
// Context.candidates replaced, kept as its reference.
func denseCandidates(gain []float64, spec Spec, budget int) quality.Gains {
	var z quality.Gains
	for l, g := range gain {
		if g >= -gainFloor || spec.SCProbs[l] <= 0 || spec.Costs[l] > budget {
			continue
		}
		z = append(z, quality.Gain{Group: l, Value: g})
	}
	return z
}

// plannerResults collects every planner output compared across views;
// floats are kept as bit patterns so DeepEqual compares them exactly.
type plannerResults struct {
	Plans        map[string]Plan
	Improvements map[string]uint64
	Candidates   []candidateBits
	MinBudget    map[string]string
}

type candidateBits struct {
	Group, Cost, MaxOps int
	Gain, SCProb, Gamma uint64
}

func runPlanners(t *testing.T, ctx *Context, seed int64) *plannerResults {
	t.Helper()
	r := &plannerResults{
		Plans:        map[string]Plan{},
		Improvements: map[string]uint64{},
		MinBudget:    map[string]string{},
	}
	for name, plan := range map[string]func(*Context) (Plan, error){
		"greedy": Greedy,
		"rescan": AblationGreedyRescan,
		"dp":     DP,
	} {
		p, err := plan(ctx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r.Plans[name] = p
		r.Improvements[name] = math.Float64bits(ExpectedImprovement(ctx, p))
	}
	// A plan over arbitrary x-tuples, zero-gain ones included.
	rng := rand.New(rand.NewSource(seed))
	arbitrary := Plan{}
	for l := 0; l < ctx.DB.NumGroups(); l++ {
		if rng.Intn(2) == 0 {
			arbitrary[l] = 1 + rng.Intn(3)
		}
	}
	r.Improvements["arbitrary"] = math.Float64bits(ExpectedImprovement(ctx, arbitrary))
	cands, err := Candidates(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		r.Candidates = append(r.Candidates, candidateBits{
			Group: c.Group, Cost: c.Cost, MaxOps: c.MaxOps,
			Gain: math.Float64bits(c.Gain), SCProb: math.Float64bits(c.SCProb), Gamma: math.Float64bits(c.Gamma),
		})
	}
	for _, frac := range []float64{0.3, 0.9, 1.5} {
		target := ctx.Eval.S * (1 - frac)
		for name, planner := range map[string]PlannerFunc{"dp": DPContext, "greedy": GreedyContext} {
			b, plan, err := MinBudgetForTargetContext(context.Background(), ctx, target, 64, planner)
			r.MinBudget[fmt.Sprintf("%s@%v", name, frac)] = fmt.Sprintf("%d %v %v", b, plan, err)
		}
	}
	return r
}

// randomSpec draws costs in 1..6 and sc-probabilities that are exactly 0
// or 1 a fair share of the time.
func randomSpec(rng *rand.Rand, m int) Spec {
	s := Spec{Costs: make([]int, m), SCProbs: make([]float64, m)}
	for l := 0; l < m; l++ {
		s.Costs[l] = 1 + rng.Intn(6)
		switch rng.Intn(5) {
		case 0:
			s.SCProbs[l] = 0
		case 1:
			s.SCProbs[l] = 1
		default:
			s.SCProbs[l] = rng.Float64()
		}
	}
	return s
}

// TestGainsOnRejectsMismatch: an evaluation whose recorded gains index a
// different x-tuple count, or a hand-assembled one with neither Info nor a
// dense vector of the right length, has no gains for the database.
func TestGainsOnRejectsMismatch(t *testing.T) {
	db := testdb.UDB1()
	ev, err := quality.TP(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := quality.GainsOn(db, ev); err != nil {
		t.Fatal(err)
	}
	grown := db.Clone()
	if err := grown.InsertXTuple("extra", uncertain.Tuple{ID: "x1", Attrs: []float64{-1}, Prob: 0.5}); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]*quality.Evaluation{
		"recorded for another m": ev,
		"hand-assembled, short":  {S: ev.S, GroupGain: make([]float64, 1)},
	} {
		if _, err := quality.GainsOn(grown, bad); err == nil {
			t.Fatalf("%s: GainsOn accepted it", name)
		}
		ctx := &Context{DB: grown, K: 2, Eval: bad, Spec: UniformSpec(grown.NumGroups(), 1, 0.5), Budget: 3}
		if err := ctx.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted it", name)
		}
	}
}
