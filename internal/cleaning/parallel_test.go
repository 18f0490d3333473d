package cleaning

import (
	"math"
	"testing"
)

func TestMonteCarloParallelMatchesTheorem2(t *testing.T) {
	ctx := ctxUDB1(t, 100, Spec{})
	plan := Plan{0: 2, 1: 1, 2: 3}
	want := ExpectedImprovement(ctx, plan)
	got, err := MonteCarloImprovementParallelContext(bg, ctx, plan, 11, 4000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 0.05 {
		t.Fatalf("parallel MC %v vs Theorem 2 %v", got, want)
	}
}

func TestMonteCarloParallelDeterministicForSeed(t *testing.T) {
	ctx := ctxUDB1(t, 100, Spec{})
	plan := Plan{0: 2, 2: 2}
	a, err := MonteCarloImprovementParallelContext(bg, ctx, plan, 5, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarloImprovementParallelContext(bg, ctx, plan, 5, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different results: %v vs %v", a, b)
	}
	c, err := MonteCarloImprovementParallelContext(bg, ctx, plan, 6, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatalf("different seeds produced identical estimates (%v)", a)
	}
}

func TestMonteCarloParallelWorkerEdgeCases(t *testing.T) {
	ctx := ctxUDB1(t, 10, Spec{})
	plan := Plan{0: 1}
	// More workers than trials.
	if _, err := MonteCarloImprovementParallelContext(bg, ctx, plan, 1, 3, 16); err != nil {
		t.Fatal(err)
	}
	// workers < 1 defaults to GOMAXPROCS.
	if _, err := MonteCarloImprovementParallelContext(bg, ctx, plan, 1, 10, 0); err != nil {
		t.Fatal(err)
	}
	// trials < 1 rejected.
	if _, err := MonteCarloImprovementParallelContext(bg, ctx, plan, 1, 0, 2); err == nil {
		t.Fatal("trials=0 must be rejected")
	}
}

// TestMonteCarloParallelWorkerCountInvariant is the regression test for
// the per-worker seeding bug: the simulated improvement must be
// bit-identical for any worker count (previously each worker had its own
// stream, so the result — and VerifyImprovement — changed with the workers
// flag, and workers<1 made it depend on GOMAXPROCS).
func TestMonteCarloParallelWorkerCountInvariant(t *testing.T) {
	ctx := ctxUDB1(t, 100, Spec{})
	plan := Plan{0: 2, 1: 1, 2: 3}
	// 1000 trials spans several blocks with a ragged tail block.
	want, err := MonteCarloImprovementParallelContext(bg, ctx, plan, 11, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 0} {
		got, err := MonteCarloImprovementParallelContext(bg, ctx, plan, 11, 1000, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d: %v, workers=1: %v (must be bit-identical)", workers, got, want)
		}
	}
}

func TestMonteCarloParallelAgreesWithSerial(t *testing.T) {
	ctx := ctxUDB1(t, 50, Spec{})
	plan := Plan{0: 3, 1: 2}
	want := ExpectedImprovement(ctx, plan)
	par, err := MonteCarloImprovementParallelContext(bg, ctx, plan, 3, 3000, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Both estimators target the same expectation.
	if math.Abs(par-want) > 0.08 {
		t.Fatalf("parallel %v deviates from expectation %v", par, want)
	}
}
