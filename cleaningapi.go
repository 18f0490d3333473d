package topkclean

import (
	"fmt"
	"math/rand"

	"github.com/probdb/topkclean/internal/cleaning"
)

// ErrStaleCleaningContext is returned by Engine.ApplyCleaning when the
// cleaning context was planned against an older database version: a
// mutation since planning has invalidated the gains the plan was chosen by.
// Re-plan with a fresh Engine.CleaningContext.
var ErrStaleCleaningContext = cleaning.ErrStaleContext

// Cleaning types, re-exported.
type (
	// CleaningSpec holds per-x-tuple cleaning costs and success
	// probabilities.
	CleaningSpec = cleaning.Spec
	// CleaningPlan maps x-tuple index to the number of cleaning operations.
	CleaningPlan = cleaning.Plan
	// CleaningContext bundles a database, query, quality evaluation, spec,
	// and budget for the planners.
	CleaningContext = cleaning.Context
	// CleaningOutcome reports one simulated execution of a plan.
	CleaningOutcome = cleaning.Outcome
	// CleanChoices records which x-tuples resolved to which alternative.
	CleanChoices = cleaning.CleanChoices
)

// UniformCleaningSpec builds a spec with identical cost and sc-probability
// for every x-tuple.
func UniformCleaningSpec(m, cost int, scProb float64) CleaningSpec {
	return cleaning.UniformSpec(m, cost, scProb)
}

// ExpectedImprovement computes the expected quality improvement of a plan
// in closed form (Theorem 2), in O(|plan|) time.
func ExpectedImprovement(ctx *CleaningContext, plan CleaningPlan) float64 {
	return cleaning.ExpectedImprovement(ctx, plan)
}

// ExecuteCleaning simulates the cleaning agent carrying out the plan with
// the given random source: operations succeed with each x-tuple's
// sc-probability, successful x-tuples resolve according to their
// alternatives' probabilities, and the cleaned database's quality is
// evaluated.
func ExecuteCleaning(ctx *CleaningContext, plan CleaningPlan, rng *rand.Rand) (*CleaningOutcome, error) {
	return cleaning.Execute(ctx, plan, rng)
}

// ApplyCleaning builds the database that results from the given successful
// cleaning outcomes (each x-tuple collapses to the chosen alternative). A
// key that is not an x-tuple index, or a choice that is not one of its
// alternatives, is rejected with an error; db itself is never changed.
func ApplyCleaning(db *Database, choices CleanChoices) (*Database, error) {
	return db.Cleaned(choices)
}

// CleaningCandidate describes one x-tuple worth cleaning, with the
// quantities that drive the planners' decisions.
type CleaningCandidate = cleaning.Candidate

// CleaningCandidates returns the x-tuples worth cleaning (nonzero removable
// deficit, nonzero success probability, affordable), sorted by descending
// first-operation improvement per unit cost — the order Greedy starts
// taking them. Useful for explaining plans to an operator.
func CleaningCandidates(ctx *CleaningContext) ([]CleaningCandidate, error) {
	return cleaning.Candidates(ctx)
}

// AdaptiveOutcome reports a multi-round adaptive cleaning session.
type AdaptiveOutcome = cleaning.AdaptiveOutcome

// deterministicPlanner resolves a planner that must not be randomized:
// adaptive re-planning would replay one random stream instead of drawing
// independently, and the min-budget binary search requires improvement to
// be monotone in the budget, which random plans do not guarantee.
func deterministicPlanner(name, caller string) (Planner, error) {
	p, err := LookupPlanner(name)
	if err != nil {
		return nil, err
	}
	if _, randomized := p.(SeedablePlanner); randomized {
		return nil, fmt.Errorf("topkclean: %s needs a deterministic planner, got %q", caller, name)
	}
	return p, nil
}
