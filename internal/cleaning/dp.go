package cleaning

import (
	"context"
	"fmt"
	"math"
)

// dpMaxCells bounds the DP reconstruction table (|Z|+1 rows of C+1 uint16
// cells). 2^27 cells = 256 MiB at 2 bytes/cell.
const dpMaxCells = 1 << 27

// DPContext solves the cleaning problem optimally (Section V-D.1),
// honouring ctx cancellation. The problem P(C, Z) is a 0-1 knapsack over
// items (l, j) with value b(l,D,j) and cost c_l; because the marginal gains
// within an x-tuple decrease (Lemma 4), the optimum always takes a prefix
// of each x-tuple's items (Theorem 3), so the knapsack is solved
// group-wise: process one x-tuple at a time, choosing how many operations
// M_l in 0..J_l to buy. Runtime O(C * sum_l J_l), matching the paper's
// O(C^2 |Z|) bound since J_l <= C / c_l <= C.
//
// The per-group item count J_l = floor(C/c_l) is additionally capped at the
// smallest j whose marginal gain falls below 1e-15 (the gains decay
// geometrically), which preserves the optimum to within 1e-15 while keeping
// the table small.
//
// Cancellation is checked between x-tuple rows and every few thousand
// budget cells; a cancelled ctx returns ctx.Err() with a nil plan.
func DPContext(ctx context.Context, c *Context) (Plan, error) {
	return dp(ctx, c, true)
}

// AblationDPNoCap runs the dynamic program without the geometric-decay cap
// on per-x-tuple operation counts (J_l = floor(C/c_l) exactly, as in the
// paper's formulation). It exists to measure what the cap buys; the
// returned plan's value matches DPContext's to within the 1e-15 cap
// tolerance.
func AblationDPNoCap(c *Context) (Plan, error) {
	//lint:allow ctxdiscipline ablation harness entry point; measurement runs own their lifecycles
	return dp(context.Background(), c, false)
}

// dpCancelStride is how many budget cells a DP row processes between
// cancellation checks; ctx.Err() is two atomic loads, so checking every
// few thousand cells keeps the overhead unmeasurable while bounding the
// cancellation latency to a fraction of one row.
const dpCancelStride = 4096

func dp(ctx context.Context, c *Context, capped bool) (Plan, error) {
	gains, err := c.validate()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	z := c.candidates(gains)
	budget := c.Budget
	if len(z) == 0 || budget == 0 {
		return Plan{}, nil
	}
	if cells := (len(z) + 1) * (budget + 1); cells > dpMaxCells || cells < 0 {
		return nil, fmt.Errorf("cleaning: DP table of %d x-tuples x %d budget exceeds memory bound; use Greedy", len(z), budget)
	}

	// dp[b] = best expected improvement achievable with budget b using the
	// x-tuples processed so far; choice[li][b] = operations bought for
	// x-tuple z[li] at that state.
	dp := make([]float64, budget+1)
	next := make([]float64, budget+1)
	choice := make([][]uint16, len(z))

	for li, cand := range z {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cost := c.Spec.Costs[cand.Group]
		p := c.Spec.SCProbs[cand.Group]
		gain := cand.Value
		jMax := budget / cost
		if capped {
			jMax = maxUsefulOps(gain, p, jMax)
		} else if jMax > math.MaxUint16 {
			jMax = math.MaxUint16
		}
		row := make([]uint16, budget+1)
		for b := 0; b <= budget; b++ {
			if b%dpCancelStride == 0 && b > 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			best := dp[b]
			bestJ := 0
			// G(l, D, j) = (1 - (1-P)^j) * (-g): expected improvement from
			// j operations on this x-tuple alone.
			fail := 1.0
			q := 1 - p
			for j := 1; j <= jMax && j*cost <= b; j++ {
				fail *= q
				v := dp[b-j*cost] + (1-fail)*(-gain)
				if v > best {
					best = v
					bestJ = j
				}
			}
			next[b] = best
			row[b] = uint16(bestJ)
		}
		choice[li] = row
		dp, next = next, dp
	}

	// Reconstruct the optimal plan.
	plan := Plan{}
	b := budget
	for li := len(z) - 1; li >= 0; li-- {
		j := int(choice[li][b])
		if j > 0 {
			l := z[li].Group
			plan[l] = j
			b -= j * c.Spec.Costs[l]
		}
	}
	return plan, nil
}

// maxUsefulOps caps the operation count at the point where the marginal
// gain b(l,D,j) = (1-P)^{j-1} P |g| drops below gainFloor; operations past
// that point change the objective by less than 1e-15 and only bloat the
// search space. The cap never goes below 1 (if the x-tuple is a candidate
// at all, one operation is worth considering) and never above the budget
// bound hardCap = floor(C / c_l).
func maxUsefulOps(gain, scProb float64, hardCap int) int {
	if hardCap < 1 {
		return 0
	}
	if scProb >= 1 {
		return 1 // first operation always succeeds; more are pointless
	}
	g := -gain
	if g <= gainFloor {
		return 0
	}
	// (1-P)^{j-1} * P * g < gainFloor  =>  j - 1 > log(gainFloor/(P*g)) / log(1-P)
	limit := math.Log(gainFloor/(scProb*g)) / math.Log(1-scProb)
	if math.IsNaN(limit) || limit < 0 {
		return min(1, hardCap)
	}
	j := int(limit) + 2
	if j > hardCap {
		return hardCap
	}
	if j < 1 {
		j = 1
	}
	if j > math.MaxUint16 {
		j = math.MaxUint16
	}
	return j
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
