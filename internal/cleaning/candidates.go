package cleaning

import "sort"

// Candidate describes one x-tuple from the planner's candidate set Z with
// the quantities that drive the planning decision. It exists to make plans
// explainable: "why did the planner pick this sensor first?"
type Candidate struct {
	Group   int     // x-tuple index
	Name    string  // x-tuple name
	Gain    float64 // -g(l, D): the quality deficit removable by cleaning l
	Cost    int     // c_l
	SCProb  float64 // P_l
	Gamma   float64 // b(l,D,1)/c_l: first-operation improvement per unit cost
	MaxOps  int     // budget-bounded operation count floor(C/c_l)
	Certain bool    // already certain (never a candidate; reported for context)
}

// Candidates returns every x-tuple with a nonzero removable deficit,
// sorted by descending first-operation gamma — the order in which Greedy
// starts taking them. X-tuples excluded by Lemma 5 (zero gain), zero
// sc-probability, or unaffordable cost are omitted, exactly matching the
// planners' candidate set.
func Candidates(ctx *Context) ([]Candidate, error) {
	gains, err := ctx.validate()
	if err != nil {
		return nil, err
	}
	z := ctx.candidates(gains)
	out := make([]Candidate, 0, len(z))
	for _, cand := range z {
		l := cand.Group
		gain := -cand.Value
		first := MarginalGain(cand.Value, ctx.Spec.SCProbOf(l), 1)
		g := ctx.DB.GroupAt(l)
		out = append(out, Candidate{
			Group:   l,
			Name:    g.Name,
			Gain:    gain,
			Cost:    ctx.Spec.CostOf(l),
			SCProb:  ctx.Spec.SCProbOf(l),
			Gamma:   first / float64(ctx.Spec.CostOf(l)),
			MaxOps:  ctx.Budget / ctx.Spec.CostOf(l),
			Certain: g.Certain(),
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Gamma != out[j].Gamma {
			return out[i].Gamma > out[j].Gamma
		}
		return out[i].Group < out[j].Group
	})
	return out, nil
}
