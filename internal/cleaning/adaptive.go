package cleaning

import (
	"context"
	"fmt"
	"math/rand"
)

// PlannerFunc is a context-aware plan-selection algorithm: given a
// planning context, produce a plan or fail (for example because ctx was
// cancelled). DPContext, GreedyContext, and seeded closures over
// RandUContext/RandPContext all satisfy it.
type PlannerFunc func(ctx context.Context, c *Context) (Plan, error)

// AdaptiveOutcome reports an adaptive cleaning session: several plan/execute
// rounds that feed leftover budget back into new plans.
type AdaptiveOutcome struct {
	Rounds      []*Outcome // per-round execution reports
	CostUsed    int        // total cost actually spent across rounds
	Budget      int        // the original budget
	Initial     float64    // S(D, Q) before any cleaning
	Final       float64    // S(D', Q) after the last round
	Improvement float64    // Final - Initial
}

// AdaptiveExecuteContext implements the re-planning loop the paper's
// Section V-A leaves as future work: "It is possible that an x-tuple is
// cleaned successfully before performing the assigned number of cleaning
// operations. In this case ... some resources may be left."
//
// Each round plans with the given planner against the *current* database
// and the *remaining* budget, executes the plan through the stochastic
// agent, charges only the operations actually performed (early successes
// refund the rest), and re-evaluates quality. The loop ends when the
// planner returns an empty plan (nothing affordable or nothing left to
// gain), after maxRounds, or when the database becomes certain.
// Cancellation is checked between rounds and inside the planner itself.
//
// Compared with the one-shot Execute, adaptive cleaning can only spend at
// most the same budget but converts refunds into additional operations, so
// its realized improvement stochastically dominates the one-shot planner's
// (verified statistically in the tests).
func AdaptiveExecuteContext(stdctx context.Context, ctx *Context, planner PlannerFunc, rng *rand.Rand, maxRounds int) (*AdaptiveOutcome, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	if maxRounds < 1 {
		return nil, fmt.Errorf("cleaning: maxRounds must be positive")
	}
	out := &AdaptiveOutcome{
		Budget:  ctx.Budget,
		Initial: ctx.Eval.S,
		Final:   ctx.Eval.S,
	}
	cur := &Context{DB: ctx.DB, K: ctx.K, Eval: ctx.Eval, Spec: ctx.Spec, Budget: ctx.Budget}
	for round := 0; round < maxRounds; round++ {
		if err := stdctx.Err(); err != nil {
			return nil, err
		}
		plan, err := planner(stdctx, cur)
		if err != nil {
			return nil, err
		}
		if plan.Ops() == 0 {
			break
		}
		res, err := Execute(cur, plan, rng)
		if err != nil {
			return nil, err
		}
		out.Rounds = append(out.Rounds, res)
		out.CostUsed += res.CostUsed
		out.Final = res.NewQuality
		remaining := cur.Budget - res.CostUsed
		if remaining <= 0 {
			break
		}
		// The next round plans against the cleaned database's gains, which
		// Execute has just evaluated, with the refunded budget.
		cur = &Context{DB: res.DB, K: cur.K, Eval: res.eval, Spec: cur.Spec, Budget: remaining}
		if res.NewQuality >= 0 {
			break // nothing left to clean
		}
	}
	out.Improvement = out.Final - out.Initial
	return out, nil
}
