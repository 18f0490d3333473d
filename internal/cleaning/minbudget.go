package cleaning

import (
	"context"
	"errors"
	"fmt"
)

// ErrTargetUnreachable is returned when no budget can reach the target
// expected quality (the best possible expected quality after cleaning
// everything infinitely often is still below the target).
var ErrTargetUnreachable = errors.New("cleaning: target quality unreachable by cleaning")

// ErrBadMaxBudget is returned when the budget cap given to
// MinBudgetForTargetContext is not a positive integer: the search probes
// the planner with budgets in [1, maxBudget], so a zero or negative cap
// has no valid probe at all.
var ErrBadMaxBudget = errors.New("cleaning: maxBudget must be at least 1")

// MinBudgetForTargetContext implements the future-work problem the
// paper's conclusion poses: "how to use minimal cost to attain a given
// quality score". It returns the smallest budget C whose optimal expected
// post-cleaning quality S(D) + I* reaches target, together with the plan.
//
// The expected improvement of an optimal plan is non-decreasing in the
// budget (any C-plan is feasible at C+1), so binary search applies. The
// planner argument selects the plan engine: DPContext gives the true
// minimum budget; GreedyContext gives an upper bound that is near-optimal
// in practice. maxBudget caps the search. Cancellation is checked before
// every budget probe and inside the planner itself.
func MinBudgetForTargetContext(stdctx context.Context, ctx *Context, target float64, maxBudget int, planner PlannerFunc) (int, Plan, error) {
	gains, err := ctx.validate()
	if err != nil {
		return 0, nil, err
	}
	if maxBudget < 1 {
		// Without this check the doubling search would probe the planner
		// with a zero or negative budget cap.
		return 0, nil, fmt.Errorf("%w (got %d)", ErrBadMaxBudget, maxBudget)
	}
	if target > 0 {
		return 0, nil, fmt.Errorf("cleaning: target quality %v is positive; quality is at most 0", target)
	}
	if ctx.Eval.S >= target {
		return 0, Plan{}, nil // already good enough
	}
	need := target - ctx.Eval.S
	// The improvement can never exceed the total removable deficit
	// -sum_l g(l,D) over x-tuples with nonzero sc-probability. Zero-gain
	// x-tuples have no entry and would only add -0.
	var ceiling float64
	for _, g := range gains {
		if ctx.Spec.SCProbs[g.Group] > 0 {
			ceiling += -g.Value
		}
	}
	if ceiling < need-1e-12 {
		return 0, nil, fmt.Errorf("%w: need %.6g, ceiling %.6g", ErrTargetUnreachable, need, ceiling)
	}

	improvementAt := func(c int) (float64, Plan, error) {
		if err := stdctx.Err(); err != nil {
			return 0, nil, err
		}
		sub := *ctx
		sub.Budget = c
		plan, err := planner(stdctx, &sub)
		if err != nil {
			return 0, nil, err
		}
		return ExpectedImprovement(&sub, plan), plan, nil
	}

	// Find an upper bracket by doubling, then binary search.
	lo, hi := 0, 1
	var hiPlan Plan
	for {
		if hi > maxBudget {
			hi = maxBudget
		}
		imp, plan, err := improvementAt(hi)
		if err != nil {
			return 0, nil, err
		}
		if imp >= need-1e-12 {
			hiPlan = plan
			break
		}
		if hi == maxBudget {
			return 0, nil, fmt.Errorf("%w within budget cap %d (best improvement %.6g of %.6g)",
				ErrTargetUnreachable, maxBudget, imp, need)
		}
		lo = hi
		hi *= 2
	}
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		imp, plan, err := improvementAt(mid)
		if err != nil {
			return 0, nil, err
		}
		if imp >= need-1e-12 {
			hi, hiPlan = mid, plan
		} else {
			lo = mid
		}
	}
	return hi, hiPlan, nil
}
