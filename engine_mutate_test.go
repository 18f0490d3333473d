package topkclean

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// rebuiltCopy reconstructs db's current content into a freshly built
// database — the baseline a mutated database must be equivalent to.
func rebuiltCopy(t testing.TB, db *Database) *Database {
	t.Helper()
	out := NewDatabase()
	for _, g := range db.Groups() {
		real := g.RealTuples()
		if len(real) == 0 {
			if err := out.AddAbsentXTuple(g.Name); err != nil {
				t.Fatal(err)
			}
			continue
		}
		ts := make([]Tuple, 0, len(real))
		for _, tp := range real {
			ts = append(ts, Tuple{ID: tp.ID, Attrs: tp.Attrs, Prob: tp.Prob})
		}
		if err := out.AddXTuple(g.Name, ts...); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.Build(db.Rank()); err != nil {
		t.Fatal(err)
	}
	return out
}

// assertAnswersMatchRebuild compares the engine's answers on its (mutated)
// database against a fresh engine over a freshly rebuilt database.
func assertAnswersMatchRebuild(t *testing.T, eng *Engine, stage string) {
	t.Helper()
	ctx := context.Background()
	got, err := eng.Answers(ctx)
	if err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
	fresh, err := New(rebuiltCopy(t, eng.DB()), WithK(eng.K()), WithPTKThreshold(eng.Threshold()))
	if err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
	want, err := fresh.Answers(ctx)
	if err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
	if g, w := FormatRanked(got.UKRanks), FormatRanked(want.UKRanks); g != w {
		t.Fatalf("%s: U-kRanks %s, rebuilt %s", stage, g, w)
	}
	if g, w := FormatScored(got.PTK), FormatScored(want.PTK); g != w {
		t.Fatalf("%s: PT-k %s, rebuilt %s", stage, g, w)
	}
	if g, w := FormatScored(got.GlobalTopK), FormatScored(want.GlobalTopK); g != w {
		t.Fatalf("%s: Global-topk %s, rebuilt %s", stage, g, w)
	}
	if math.Abs(got.Quality-want.Quality) > 1e-12 {
		t.Fatalf("%s: quality %v, rebuilt %v", stage, got.Quality, want.Quality)
	}
}

// TestEngineAnswersTrackMutations is the acceptance cross-check: after
// every mutation kind, the version-aware engine's answers must equal those
// of a freshly built database holding the same data.
func TestEngineAnswersTrackMutations(t *testing.T) {
	db := engineSyntheticDB(t, 120)
	eng, err := New(db, WithK(7), WithPTKThreshold(0.1))
	if err != nil {
		t.Fatal(err)
	}
	assertAnswersMatchRebuild(t, eng, "baseline")

	// Insert an x-tuple that lands in the middle of the rank order.
	mid := db.Sorted()[db.NumTuples()/3].Score
	if err := db.InsertXTuple("stream-1",
		Tuple{ID: "st1.a", Attrs: []float64{mid + 0.5}, Prob: 0.5},
		Tuple{ID: "st1.b", Attrs: []float64{mid - 0.5}, Prob: 0.3}); err != nil {
		t.Fatal(err)
	}
	assertAnswersMatchRebuild(t, eng, "after insert")

	if err := db.DeleteXTuple(4); err != nil {
		t.Fatal(err)
	}
	assertAnswersMatchRebuild(t, eng, "after delete")

	if err := db.Collapse(10, 0); err != nil {
		t.Fatal(err)
	}
	assertAnswersMatchRebuild(t, eng, "after collapse")

	real := db.Groups()[2].RealTuples()
	probs := make([]float64, len(real))
	for i := range probs {
		probs[i] = 0.8 / float64(len(probs))
	}
	if err := db.Reweight(2, probs); err != nil {
		t.Fatal(err)
	}
	assertAnswersMatchRebuild(t, eng, "after reweight")
}

// answerSnap is a deep copy of the snapshot fields of one answer entry,
// used to detect in-place changes to previously returned Results.
type answerSnap struct {
	id    string
	rank  int
	score float64
	prob  float64
}

func snapResult(res *Result) (out []answerSnap) {
	for _, a := range res.UKRanks {
		out = append(out, answerSnap{a.ID, a.Rank, a.Score, a.Prob})
	}
	for _, a := range res.PTK {
		out = append(out, answerSnap{a.ID, a.Rank, a.Score, a.Prob})
	}
	for _, a := range res.GlobalTopK {
		out = append(out, answerSnap{a.ID, a.Rank, a.Score, a.Prob})
	}
	return out
}

// TestResultImmuneToLaterMutations is the aliasing regression test: the
// answer structs hold *Tuple pointers whose rank position and x-tuple
// index are renumbered in place by later mutations, so a previously
// returned Result must carry its own snapshots (ID, Score, Rank) rather
// than read through the pointer.
func TestResultImmuneToLaterMutations(t *testing.T) {
	db := engineSyntheticDB(t, 100)
	eng, err := New(db, WithK(5), WithPTKThreshold(0.1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := eng.Answers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	before := snapResult(res)
	uk, ptk, gtk := FormatRanked(res.UKRanks), FormatScored(res.PTK), FormatScored(res.GlobalTopK)

	// Renumber everything: a new top tuple shifts every rank position up,
	// and deleting x-tuple 0 renumbers every group index.
	top := db.Sorted()[0].Score
	if err := db.InsertXTuple("above", Tuple{ID: "above.a", Attrs: []float64{top + 10}, Prob: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteXTuple(0); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Answers(ctx); err != nil { // migrate the memoized state too
		t.Fatal(err)
	}

	after := snapResult(res)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("captured answer %d changed under mutation: %+v -> %+v", i, before[i], after[i])
		}
	}
	if g := FormatRanked(res.UKRanks); g != uk {
		t.Fatalf("captured U-kRanks rendering changed: %s -> %s", uk, g)
	}
	if g := FormatScored(res.PTK); g != ptk {
		t.Fatalf("captured PT-k rendering changed: %s -> %s", ptk, g)
	}
	if g := FormatScored(res.GlobalTopK); g != gtk {
		t.Fatalf("captured Global-topk rendering changed: %s -> %s", gtk, g)
	}
	// Sanity: the mutations really did renumber the live tuples, i.e. the
	// snapshots are load-bearing, not copies of still-identical state.
	moved := false
	for _, a := range res.GlobalTopK {
		if a.Tuple.Index() != a.Rank {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("test fixture failed to shift any answered tuple's rank position")
	}
}

// TestEngineResumeKeepsBottomMutationsFree pins the delta-aware fast path:
// a mutation strictly below the scan's early-termination point must leave
// the memoized top-k array untouched (shared backing, not recomputed), and
// a mutation above it must still produce answers matching a rebuild.
func TestEngineResumeKeepsBottomMutationsFree(t *testing.T) {
	db := engineSyntheticDB(t, 150)
	eng, err := New(db, WithK(6), WithPTKThreshold(0.1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res1, err := eng.Answers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Info.Processed >= db.NumTuples() {
		t.Fatalf("fixture did not early-terminate (Processed %d)", res1.Info.Processed)
	}
	bottom := db.Sorted()[db.NumTuples()-1].Score
	if err := db.InsertXTuple("tail", Tuple{ID: "tail.a", Attrs: []float64{bottom - 5}, Prob: 0.5}); err != nil {
		t.Fatal(err)
	}
	res2, err := eng.Answers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if &res2.Info.TopK[0] != &res1.Info.TopK[0] {
		t.Error("bottom mutation recomputed the pass; expected a pure resume cache hit")
	}
	if res2.Info == res1.Info {
		t.Error("resume must produce a new RankInfo, not mutate the old one in place")
	}
	assertAnswersMatchRebuild(t, eng, "after bottom insert")

	// Deleting a non-trailing x-tuple whose alternatives all lie below the
	// termination point is still a pure resume hit for the scan, but it
	// renumbers group indices — the per-group gain cache must be rebuilt,
	// not carried over (quality would silently misattribute gains).
	processed := res2.Info.Processed
	victim := -1
	for l, g := range db.Groups() {
		if l == db.NumGroups()-1 {
			continue
		}
		below := true
		for _, tp := range g.Tuples {
			if tp.Index() < processed {
				below = false
				break
			}
		}
		if below {
			victim = l
			break
		}
	}
	if victim < 0 {
		t.Fatal("fixture has no non-trailing x-tuple entirely below the termination point")
	}
	if err := db.DeleteXTuple(victim); err != nil {
		t.Fatal(err)
	}
	assertAnswersMatchRebuild(t, eng, "after renumbering delete below the prefix")

	// A top mutation invalidates the whole prefix; the resumed state must
	// be recomputed (distinct backing) yet still match a rebuild.
	top := db.Sorted()[0].Score
	if err := db.InsertXTuple("head", Tuple{ID: "head.a", Attrs: []float64{top + 5}, Prob: 0.9}); err != nil {
		t.Fatal(err)
	}
	res3, err := eng.Answers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Info.TopK) > 0 && len(res3.Info.TopK) > 0 && &res3.Info.TopK[0] == &res2.Info.TopK[0] {
		t.Error("top mutation must not reuse the stale prefix wholesale")
	}
	assertAnswersMatchRebuild(t, eng, "after top insert")
}

// TestEngineStatesBoundedUnderMutateQueryLoop: the memo map must stay
// bounded by the number of distinct query sizes — not grow per version —
// when a session interleaves mutations with queries at several k's, and
// entries must migrate rather than accrete.
func TestEngineStatesBoundedUnderMutateQueryLoop(t *testing.T) {
	db := engineSyntheticDB(t, 80)
	eng, err := New(db, WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		if _, err := eng.Quality(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.QualityAt(ctx, 3+i%2); err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("churn-%d", i)
		if err := db.InsertXTuple(name, Tuple{ID: name + ".a", Attrs: []float64{float64(i)}, Prob: 0.5}); err != nil {
			t.Fatal(err)
		}
		n := eng.memo.Len()
		if n > 3 { // k = 5 plus the two alternating QualityAt sizes
			t.Fatalf("iteration %d: states map holds %d entries, want <= 3", i, n)
		}
	}
}

// TestEngineMigratesInPlace: a mutate/query churn loop on one k must keep
// reusing (migrating) the single memoized entry for that k — versions are
// carried in place, never accreted as new map entries.
func TestEngineMigratesInPlace(t *testing.T) {
	db := engineSyntheticDB(t, 60)
	eng, err := New(db, WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := eng.Quality(ctx); err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("churn-%d", i)
		if err := db.InsertXTuple(name, Tuple{ID: name + ".a", Attrs: []float64{50}, Prob: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Quality(ctx); err != nil {
		t.Fatal(err)
	}
	n := eng.memo.Len()
	if n != 1 {
		t.Fatalf("states map holds %d entries after churn, want 1", n)
	}
}

// TestEngineUpgradeReusesEvaluation is the regression test for the
// light→full upgrade discarding memoized state: the QualityEvaluation
// pointer handed out before the upgrade must be the identical pointer
// afterwards, as the session contract documents.
func TestEngineUpgradeReusesEvaluation(t *testing.T) {
	db := paperUDB1(t)
	eng, err := New(db, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	evBefore, err := eng.QualityEvaluation(ctx) // light pass
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Answers(ctx) // forces the full upgrade
	if err != nil {
		t.Fatal(err)
	}
	evAfter, err := eng.QualityEvaluation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if evAfter != evBefore {
		t.Fatal("light→full upgrade replaced the memoized QualityEvaluation pointer")
	}
	if res.Eval != evBefore {
		t.Fatal("Answers after the upgrade does not share the pre-upgrade evaluation")
	}
	cctx, err := eng.CleaningContext(ctx, UniformCleaningSpec(db.NumGroups(), 1, 0.8), 5)
	if err != nil {
		t.Fatal(err)
	}
	if cctx.Eval != evBefore {
		t.Fatal("CleaningContext after the upgrade does not share the pre-upgrade evaluation")
	}
}

func TestEngineApplyCleaning(t *testing.T) {
	db := engineSyntheticDB(t, 150)
	eng, err := New(db, WithK(7), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	spec := UniformCleaningSpec(db.NumGroups(), 1, 0.9)
	plan, cctx, err := eng.PlanCleaning(ctx, "greedy", spec, 40)
	if err != nil {
		t.Fatal(err)
	}
	before := cctx.Eval.S
	vBefore := db.Version()
	out, err := eng.ApplyCleaning(ctx, cctx, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.DB != db {
		t.Fatal("ApplyCleaning must mutate the engine's own database")
	}
	if len(out.Choices) > 0 && db.Version() == vBefore {
		t.Fatal("successful cleaning must bump the database version")
	}
	for l := range out.Choices {
		if !db.Groups()[l].Certain() && !db.Groups()[l].Absent() {
			t.Fatalf("x-tuple %d was cleaned but is neither certain nor absent", l)
		}
	}
	if math.Abs(out.Improvement-(out.NewQuality-before)) > 1e-12 {
		t.Fatalf("improvement %v inconsistent with quality delta %v", out.Improvement, out.NewQuality-before)
	}
	q, err := eng.Quality(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if q != out.NewQuality {
		t.Fatalf("post-apply Quality %v, outcome reported %v", q, out.NewQuality)
	}
	assertAnswersMatchRebuild(t, eng, "after ApplyCleaning")

	// The consumed context is now stale (the apply bumped the version).
	if _, err := eng.ApplyCleaning(ctx, cctx, plan, nil); !errors.Is(err, ErrStaleCleaningContext) {
		t.Fatalf("stale context: got %v, want ErrStaleCleaningContext", err)
	}
	// A context over a different database is foreign.
	other := engineSyntheticDB(t, 30)
	engOther, err := New(other, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := engOther.CleaningContext(ctx, UniformCleaningSpec(other.NumGroups(), 1, 0.5), 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ApplyCleaning(ctx, foreign, CleaningPlan{}, nil); !errors.Is(err, ErrForeignContext) {
		t.Fatalf("foreign context: got %v, want ErrForeignContext", err)
	}
}

// TestEngineApplyCleaningMatchesExecute: with the same rng stream,
// ApplyCleaning's in-place outcome must resolve the same x-tuples to the
// same alternatives as the copy-based ExecuteCleaning.
func TestEngineApplyCleaningMatchesExecute(t *testing.T) {
	db := engineSyntheticDB(t, 100)
	eng, err := New(db, WithK(5), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	spec := UniformCleaningSpec(db.NumGroups(), 2, 0.7)
	plan, cctx, err := eng.PlanCleaning(ctx, "dp", spec, 30)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExecuteCleaning(cctx, plan, rand.New(rand.NewSource(123)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.ApplyCleaning(ctx, cctx, plan, rand.New(rand.NewSource(123)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Choices) != len(want.Choices) {
		t.Fatalf("choices %v, execute produced %v", got.Choices, want.Choices)
	}
	for l, c := range want.Choices {
		if got.Choices[l] != c {
			t.Fatalf("x-tuple %d resolved to %d, execute chose %d", l, got.Choices[l], c)
		}
	}
	if got.OpsUsed != want.OpsUsed || got.CostUsed != want.CostUsed {
		t.Fatalf("ops/cost (%d, %d), execute (%d, %d)", got.OpsUsed, got.CostUsed, want.OpsUsed, want.CostUsed)
	}
	if math.Abs(got.NewQuality-want.NewQuality) > 1e-12 {
		t.Fatalf("in-place quality %v, rebuilt copy quality %v", got.NewQuality, want.NewQuality)
	}
}
