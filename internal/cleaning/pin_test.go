package cleaning

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestSimulationBitsPinned pins the exact float bits of the simulation
// entry points on udb1 with fixed seeds and plans. The statistical tests
// only check closeness to Theorem 2; these bits catch any change in how a
// cleaned database is rebuilt or re-evaluated (the rebuild's tie-break
// stamps, TP's summation order, the adaptive loop's reuse of Execute's
// evaluation) that would shift a result without moving its mean.
func TestSimulationBitsPinned(t *testing.T) {
	plan := Plan{0: 2, 2: 3}
	ctx := ctxUDB1(t, 100, Spec{})
	pinBits := func(what string, got float64, want uint64) {
		t.Helper()
		if bits := math.Float64bits(got); bits != want {
			t.Fatalf("%s = %v (bits %#x), want bits %#x", what, got, bits, want)
		}
	}

	mc, err := MonteCarloImprovement(ctx, plan, rand.New(rand.NewSource(4)), 500)
	if err != nil {
		t.Fatal(err)
	}
	pinBits("MonteCarloImprovement", mc, 0x3ffa2edbd9058a20)
	for _, workers := range []int{1, 4} {
		par, err := MonteCarloImprovementParallelContext(bg, ctx, plan, 11, 500, workers)
		if err != nil {
			t.Fatal(err)
		}
		pinBits("MonteCarloImprovementParallelContext", par, 0x3ffa26e79de3f6f5)
	}

	// Budget 4 at sc-probability 0.3 under seed 2 runs two rounds: the
	// first resolves x-tuples 0 and 1 and refunds one operation, which the
	// second round spends without success.
	actx := ctxUDB1(t, 4, UniformSpec(ctx.DB.NumGroups(), 1, 0.3))
	out, err := AdaptiveExecuteContext(bg, actx, GreedyContext, rand.New(rand.NewSource(2)), 10)
	if err != nil {
		t.Fatal(err)
	}
	pinBits("adaptive Final", out.Final, 0xbfef1206fb26ddad)
	if out.CostUsed != 4 {
		t.Fatalf("adaptive CostUsed = %d, want 4", out.CostUsed)
	}
	wantChoices := []CleanChoices{{0: 0, 1: 0}, {}}
	if len(out.Rounds) != len(wantChoices) {
		t.Fatalf("adaptive ran %d rounds, want %d", len(out.Rounds), len(wantChoices))
	}
	for i, r := range out.Rounds {
		if !reflect.DeepEqual(r.Choices, wantChoices[i]) {
			t.Fatalf("round %d choices %v, want %v", i, r.Choices, wantChoices[i])
		}
		pinBits("round NewQuality", r.NewQuality, 0xbfef1206fb26ddad)
	}
}
