package cleaning

import (
	"context"
	"fmt"
	"math/rand"
)

// randCancelStride is how many draws the random planners make between
// cancellation checks.
const randCancelStride = 256

// RandUContext implements the uniform-random baseline of Section V-D.2,
// honouring ctx cancellation: x-tuples are selected uniformly at random
// with replacement — regardless of whether cleaning them can help — until
// the budget cannot afford any further operation. O(C) expected time.
func RandUContext(ctx context.Context, c *Context, rng *rand.Rand) (Plan, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	m := c.DB.NumGroups()
	weights := make([]float64, m)
	for l := 0; l < m; l++ {
		weights[l] = 1
	}
	return randomPlan(ctx, c, rng, weights)
}

// RandPContext implements the probability-weighted baseline of Section
// V-D.3, honouring ctx cancellation: an x-tuple is selected with
// probability sum_{t_i in tau_l} p_i / k, the intuition being that x-tuples
// with large top-k probability matter more to the query answer. Selection
// is with replacement until the budget is exhausted. O(C log m) expected
// time.
func RandPContext(ctx context.Context, c *Context, rng *rand.Rand) (Plan, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	m := c.DB.NumGroups()
	weights := make([]float64, m)
	info := c.Eval.Info
	if info == nil {
		return nil, fmt.Errorf("cleaning: RandP needs rank info in the evaluation")
	}
	// Positions come from the iteration index, not Tuple.Index: the context
	// may hold a pinned snapshot whose tuples' live rank caches a concurrent
	// writer is repairing, while the snapshot's own order is frozen. Every
	// position past the processed prefix has p_i = 0 (Lemma 2) and would
	// add +0 to a weight, so the walk stops there.
	cur := c.DB.CursorAt(0)
	for i := 0; i < info.Processed; i++ {
		t := cur.Next()
		if t == nil {
			break
		}
		weights[t.Group] += info.P(i)
	}
	return randomPlan(ctx, c, rng, weights)
}

// randomPlan repeatedly draws an x-tuple from the weighted distribution and
// buys one cleaning operation for it when affordable, stopping when no
// drawable x-tuple fits the remaining budget. Cancellation is checked
// every few hundred draws; a cancelled ctx returns ctx.Err() with a nil
// plan.
func randomPlan(ctx context.Context, c *Context, rng *rand.Rand, weights []float64) (Plan, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m := len(weights)
	cum := make([]float64, m)
	run := 0.0
	minAffordable := -1
	for l := 0; l < m; l++ {
		run += weights[l]
		cum[l] = run
		if weights[l] > 0 && (minAffordable == -1 || c.Spec.CostOf(l) < minAffordable) {
			minAffordable = c.Spec.CostOf(l)
		}
	}
	plan := Plan{}
	if run == 0 || minAffordable == -1 {
		return plan, nil
	}
	remaining := c.Budget
	for draws := 0; remaining >= minAffordable; draws++ {
		if draws%randCancelStride == 0 && draws > 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		u := rng.Float64() * run
		l := searchCum(cum, u)
		if weights[l] == 0 {
			continue // u landed exactly on a boundary of a zero-weight x-tuple
		}
		if c.Spec.CostOf(l) > remaining {
			continue // rejection: this draw does not fit, try another
		}
		plan[l]++
		remaining -= c.Spec.CostOf(l)
	}
	return plan, nil
}

// searchCum returns the smallest index with cum[i] >= u.
func searchCum(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
