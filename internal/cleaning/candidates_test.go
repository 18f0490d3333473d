package cleaning

import (
	"testing"
)

func TestCandidatesSortedByGamma(t *testing.T) {
	ctx := ctxUDB1(t, 100, Spec{})
	cands, err := Candidates(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("udb1 has uncertain x-tuples; candidates expected")
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].Gamma > cands[i-1].Gamma {
			t.Fatal("candidates not sorted by descending gamma")
		}
	}
	for _, c := range cands {
		if c.Gain <= 0 {
			t.Fatalf("candidate %s has non-positive gain %v", c.Name, c.Gain)
		}
		if c.Cost < 1 || c.SCProb <= 0 {
			t.Fatalf("candidate %s violates candidate-set rules: %+v", c.Name, c)
		}
		if c.MaxOps != ctx.Budget/c.Cost {
			t.Fatalf("candidate %s MaxOps wrong", c.Name)
		}
	}
}

func TestCandidatesExcludesHopelessAndCertain(t *testing.T) {
	db := ctxUDB1(t, 100, Spec{}).DB
	spec := UniformSpec(db.NumGroups(), 1, 0.5)
	spec.SCProbs[0] = 0 // S1 hopeless
	ctx, err := NewContext(db, 2, spec, 100)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := Candidates(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Group == 0 {
			t.Fatal("sc-prob-0 x-tuple must be excluded")
		}
		if c.Name == "S4" {
			t.Fatal("certain x-tuple S4 must be excluded (zero gain)")
		}
	}
}

func TestCandidatesGreedyTakesTopGammaFirst(t *testing.T) {
	ctx := ctxUDB1(t, 1, Spec{}) // budget for exactly one unit-cost op
	cands, err := Candidates(ctx)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := GreedyContext(bg, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 1 {
		t.Fatalf("plan = %v, want a single operation", plan)
	}
	if plan[cands[0].Group] != 1 {
		t.Fatalf("greedy took %v, top candidate is %d", plan, cands[0].Group)
	}
}

func TestCandidatesValidation(t *testing.T) {
	ctx := ctxUDB1(t, 10, Spec{})
	ctx.Eval = nil
	if _, err := Candidates(ctx); err == nil {
		t.Fatal("invalid context must be rejected")
	}
}
