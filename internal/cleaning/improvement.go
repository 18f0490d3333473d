package cleaning

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/probdb/topkclean/internal/numeric"
	"github.com/probdb/topkclean/internal/quality"
)

// ExpectedImprovement computes I(X, M, D, Q) by Theorem 2:
//
//	I = -sum_l (1 - (1 - P_l)^{M_l}) * g(l, D)
//
// in O(|X|) time, given the per-x-tuple gains from the TP evaluation.
// Because g(l,D) <= 0, the improvement is always >= 0.
func ExpectedImprovement(ctx *Context, plan Plan) float64 {
	// An evaluation without gains for this database contributes none.
	gains, _ := quality.GainsOn(ctx.DB, ctx.Eval)
	var sum numeric.Kahan
	for _, l := range plan.SortedGroups() {
		m := plan[l]
		p := ctx.Spec.SCProbs[l]
		sum.Add(-(1 - pow1mP(p, m)) * gains.At(l))
	}
	return sum.Sum()
}

// MarginalGain computes b(l, D, j) (Equation 21): the increase in expected
// improvement when the number of pclean operations on x-tuple l grows from
// j-1 to j:
//
//	b(l, D, j) = -(1 - P_l)^{j-1} * P_l * g(l, D)
//
// b decreases monotonically in j (Lemma 4), which is what makes the greedy
// heap and the prefix structure of the optimal solution work.
func MarginalGain(gain, scProb float64, j int) float64 {
	if j < 1 {
		return 0
	}
	return -pow1mP(scProb, j-1) * scProb * gain
}

// pow1mP computes (1-p)^m stably, with the convention 0^0 = 1 (m = 0 means
// "no operations performed", which certainly leaves the x-tuple unchanged).
func pow1mP(p float64, m int) float64 {
	if m <= 0 {
		return 1
	}
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return 1
	}
	return math.Pow(1-p, float64(m))
}

// CleanChoices maps x-tuple index -> chosen alternative index (into
// XTuple.Tuples, including the null alternative) for x-tuples whose
// cleaning succeeded.
type CleanChoices map[int]int

// ExactExpectedImprovement verifies Theorem 2 from first principles: it
// enumerates every possible cleaned-outcome vector x0 in z_1 x ... x z_|X|
// (Section V-A), builds each cleaned database D', evaluates its quality
// exactly, and returns E[S(D')] - S(D) per Equations 16-18. Exponential in
// |X|; meant for tests and small illustrations.
func ExactExpectedImprovement(ctx *Context, plan Plan) (float64, error) {
	if err := ctx.Validate(); err != nil {
		return 0, err
	}
	groups := plan.SortedGroups()
	var expected numeric.Kahan
	choices := make(CleanChoices, len(groups))
	var recurse func(idx int, prob float64) error
	recurse = func(idx int, prob float64) error {
		if prob == 0 {
			return nil
		}
		if idx == len(groups) {
			db2, err := ctx.DB.Cleaned(choices)
			if err != nil {
				return err
			}
			ev, err := quality.TP(db2, ctx.K)
			if err != nil {
				return err
			}
			expected.Add(prob * ev.S)
			return nil
		}
		l := groups[idx]
		pSuccess := 1 - pow1mP(ctx.Spec.SCProbs[l], plan[l])
		// Outcome: cleaning failed every time; tau_l unchanged.
		delete(choices, l)
		if err := recurse(idx+1, prob*(1-pSuccess)); err != nil {
			return err
		}
		// Outcome: cleaning succeeded and resolved to alternative ti
		// (including the null alternative) with probability e_i.
		g := ctx.DB.GroupAt(l)
		for ti, t := range g.Tuples {
			choices[l] = ti
			if err := recurse(idx+1, prob*pSuccess*t.Prob); err != nil {
				return err
			}
		}
		delete(choices, l)
		return nil
	}
	if err := recurse(0, 1); err != nil {
		return 0, err
	}
	return expected.Sum() - ctx.Eval.S, nil
}

// MonteCarloImprovement estimates the expected improvement by simulating
// the cleaning process trials times and averaging the realized quality
// change. It converges to ExpectedImprovement (law of large numbers) and
// serves as an independent statistical check of Theorem 2.
func MonteCarloImprovement(ctx *Context, plan Plan, rng *rand.Rand, trials int) (float64, error) {
	if err := ctx.Validate(); err != nil {
		return 0, err
	}
	if trials < 1 {
		return 0, fmt.Errorf("cleaning: trials must be positive")
	}
	var sum numeric.Kahan
	for i := 0; i < trials; i++ {
		out, err := Execute(ctx, plan, rng)
		if err != nil {
			return 0, err
		}
		sum.Add(out.Improvement)
	}
	return sum.Sum() / float64(trials), nil
}
