package topkclean_test

// Godoc examples with verified output. Each Example function doubles as a
// documentation snippet on pkg.go.dev and as a regression test (go test
// compares the printed output against the Output comments).

import (
	"context"
	"fmt"
	"math/rand"

	topkclean "github.com/probdb/topkclean"
)

// buildPaperExample constructs Table I of the paper.
func buildPaperExample() *topkclean.Database {
	db := topkclean.NewDatabase()
	_ = db.AddXTuple("S1",
		topkclean.Tuple{ID: "t0", Attrs: []float64{21}, Prob: 0.6},
		topkclean.Tuple{ID: "t1", Attrs: []float64{32}, Prob: 0.4})
	_ = db.AddXTuple("S2",
		topkclean.Tuple{ID: "t2", Attrs: []float64{30}, Prob: 0.7},
		topkclean.Tuple{ID: "t3", Attrs: []float64{22}, Prob: 0.3})
	_ = db.AddXTuple("S3",
		topkclean.Tuple{ID: "t4", Attrs: []float64{25}, Prob: 0.4},
		topkclean.Tuple{ID: "t5", Attrs: []float64{27}, Prob: 0.6})
	_ = db.AddXTuple("S4",
		topkclean.Tuple{ID: "t6", Attrs: []float64{26}, Prob: 1})
	_ = db.Build(topkclean.ByFirstAttr)
	return db
}

func ExampleNew() {
	db := buildPaperExample()
	// One Engine session computes the rank-probability pass once; answers,
	// quality, and cleaning plans all reuse it.
	eng, err := topkclean.New(db, topkclean.WithK(2), topkclean.WithPTKThreshold(0.4))
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	res, err := eng.Answers(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Println("PT-2:", topkclean.FormatScored(res.PTK))
	fmt.Printf("quality: %.4f\n", res.Quality)
	// Output:
	// PT-2: {t1, t2, t5}
	// quality: -2.5513
}

func ExampleEngine_PlanCleaning() {
	db := buildPaperExample()
	eng, err := topkclean.New(db, topkclean.WithK(2))
	if err != nil {
		panic(err)
	}
	// Every probe costs 1 unit and always succeeds; budget of 2 probes.
	spec := topkclean.UniformCleaningSpec(db.NumGroups(), 1, 1.0)
	plan, cctx, err := eng.PlanCleaning(context.Background(), "dp", spec, 2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("probes: %d, expected improvement: %.4f\n",
		plan.Ops(), topkclean.ExpectedImprovement(cctx, plan))
	// Output:
	// probes: 2, expected improvement: 1.8522
}

func ExampleLookupPlanner() {
	p, err := topkclean.LookupPlanner("greedy")
	if err != nil {
		panic(err)
	}
	fmt.Println(p.Name())
	// Output:
	// greedy
}

func ExampleEngine_Answers() {
	db := buildPaperExample()
	eng, err := topkclean.New(db, topkclean.WithK(2), topkclean.WithPTKThreshold(0.4))
	if err != nil {
		panic(err)
	}
	res, err := eng.Answers(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Println("PT-2:", topkclean.FormatScored(res.PTK))
	fmt.Printf("quality: %.4f\n", res.Quality)
	// Output:
	// PT-2: {t1, t2, t5}
	// quality: -2.5513
}

func ExampleEngine_Quality() {
	eng, err := topkclean.New(buildPaperExample(), topkclean.WithK(2))
	if err != nil {
		panic(err)
	}
	s, err := eng.Quality(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Printf("%.2f\n", s)
	// Output:
	// -2.55
}

func ExamplePWResultDistribution() {
	db := buildPaperExample()
	dist, err := topkclean.PWResultDistribution(db, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println("possible answers:", len(dist))
	fmt.Println("most likely:", dist[0])
	// Output:
	// possible answers: 7
	// most likely: (t1,t2)@0.28
}

func ExampleUTopK() {
	db := buildPaperExample()
	best, err := topkclean.UTopK(db, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println(best)
	// Output:
	// (t1,t2)@0.28
}

func ExampleApplyCleaning() {
	db := buildPaperExample()
	// Probing sensor S3 (x-tuple index 2) confirms reading t5 (index 1).
	cleaned, err := topkclean.ApplyCleaning(db, topkclean.CleanChoices{2: 1})
	if err != nil {
		panic(err)
	}
	eng, err := topkclean.New(cleaned, topkclean.WithK(2))
	if err != nil {
		panic(err)
	}
	s, _ := eng.Quality(context.Background())
	fmt.Printf("%.2f\n", s)
	// Output:
	// -1.85
}

func ExampleEngine_CleaningContext() {
	db := buildPaperExample()
	eng, err := topkclean.New(db, topkclean.WithK(2))
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	// Every probe costs 1 unit and always succeeds; budget of 2 probes.
	spec := topkclean.UniformCleaningSpec(db.NumGroups(), 1, 1.0)
	cctx, err := eng.CleaningContext(ctx, spec, 2)
	if err != nil {
		panic(err)
	}
	// A Planner value plans against the context directly.
	dp, err := topkclean.LookupPlanner("dp")
	if err != nil {
		panic(err)
	}
	plan, err := dp.Plan(ctx, cctx)
	if err != nil {
		panic(err)
	}
	fmt.Printf("probes: %d, expected improvement: %.4f\n",
		plan.Ops(), topkclean.ExpectedImprovement(cctx, plan))
	// Output:
	// probes: 2, expected improvement: 1.8522
}

func ExampleExecuteCleaning() {
	db := buildPaperExample()
	eng, err := topkclean.New(db, topkclean.WithK(2))
	if err != nil {
		panic(err)
	}
	spec := topkclean.UniformCleaningSpec(db.NumGroups(), 1, 1.0)
	plan, cctx, err := eng.PlanCleaning(context.Background(), "greedy", spec, 100)
	if err != nil {
		panic(err)
	}
	// ExecuteCleaning simulates the agent on a cleaned copy; the engine's
	// database is left as it was.
	out, err := topkclean.ExecuteCleaning(cctx, plan, rand.New(rand.NewSource(1)))
	if err != nil {
		panic(err)
	}
	fmt.Printf("quality after cleaning everything: %.1f\n", out.NewQuality)
	// Output:
	// quality after cleaning everything: 0.0
}

func ExampleEngine_MinBudgetForTarget() {
	db := buildPaperExample()
	eng, err := topkclean.New(db, topkclean.WithK(2))
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	spec := topkclean.UniformCleaningSpec(db.NumGroups(), 1, 1.0)
	cctx, err := eng.CleaningContext(ctx, spec, 0)
	if err != nil {
		panic(err)
	}
	// How many certain probes to halve the ambiguity?
	target := cctx.Eval.S / 2
	budget, _, err := eng.MinBudgetForTarget(ctx, cctx, target, 1000, "dp")
	if err != nil {
		panic(err)
	}
	fmt.Println("probes needed:", budget)
	// Output:
	// probes needed: 2
}

func ExampleDatabase_ComputeStats() {
	db := buildPaperExample()
	fmt.Println(db.ComputeStats())
	// Output:
	// x-tuples=4 tuples=7 (avg 1.75/x-tuple, 0 nulls, 1 certain) e in [0.3, 1]
}

func ExampleDatabase_Batch() {
	db := buildPaperExample()
	before := db.Version()
	// A burst of updates commits as one version bump and one epoch: a new
	// sensor comes online and S3's distribution is revised, atomically.
	err := db.Batch(func(b *topkclean.Batch) error {
		if err := b.InsertXTuple("S5",
			topkclean.Tuple{ID: "t7", Attrs: []float64{29}, Prob: 0.5}); err != nil {
			return err
		}
		return b.Reweight(2, []float64{0.2, 0.7})
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("versions committed:", db.Version()-before)
	fmt.Println("x-tuples:", db.NumGroups())
	// Output:
	// versions committed: 1
	// x-tuples: 5
}

func ExampleDatabase_Snapshot() {
	db := buildPaperExample()
	eng, err := topkclean.New(db, topkclean.WithK(2), topkclean.WithPTKThreshold(0.4))
	if err != nil {
		panic(err)
	}
	ctx := context.Background()

	// Pin the current epoch. The snapshot is an immutable view: queries
	// against it never block on writers and never observe later mutations.
	snap := db.Snapshot()

	// Mutate the live database: S3 resolves to its better reading.
	if err := db.Collapse(2, 1); err != nil {
		panic(err)
	}

	// The engine serves the new version; the pinned epoch still holds the
	// old state, byte for byte.
	res, err := eng.Answers(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Printf("live:     v%d, PT-2 %s\n", res.Version, topkclean.FormatScored(res.PTK))
	fmt.Printf("snapshot: v%d, %d x-tuples, frozen=%v\n", snap.Version(), snap.NumGroups(), snap.Frozen())
	// Output:
	// live:     v2, PT-2 {t1, t2, t5}
	// snapshot: v1, 4 x-tuples, frozen=true
}

func ExampleEngine_ApplyCleaning() {
	db := buildPaperExample()
	eng, err := topkclean.New(db, topkclean.WithK(2), topkclean.WithPTKThreshold(0.4))
	if err != nil {
		panic(err)
	}
	ctx := context.Background()

	// The mutate-while-serving loop: plan a cleaning against the memoized
	// evaluation, execute it onto the live database (one atomic epoch),
	// and read the re-evaluated quality — all in one session. Probes cost
	// 1 unit and always succeed; budget of 2 probes.
	spec := topkclean.UniformCleaningSpec(db.NumGroups(), 1, 1.0)
	plan, cctx, err := eng.PlanCleaning(ctx, "dp", spec, 2)
	if err != nil {
		panic(err)
	}
	out, err := eng.ApplyCleaning(ctx, cctx, plan, rand.New(rand.NewSource(7)))
	if err != nil {
		panic(err)
	}
	fmt.Printf("cleaned %d x-tuples for cost %d\n", len(out.Choices), out.CostUsed)
	fmt.Printf("quality %.4f -> %.4f (improved %.4f)\n",
		out.NewQuality-out.Improvement, out.NewQuality, out.Improvement)
	res, _ := eng.Answers(ctx)
	fmt.Println("new answers at version", res.Version, "PT-2:", topkclean.FormatScored(res.PTK))
	// Output:
	// cleaned 2 x-tuples for cost 2
	// quality -2.5513 -> -0.9710 (improved 1.5804)
	// new answers at version 2 PT-2: {t5, t6, t4}
}
