// Package cleaning implements Section V of the paper: the pclean operation
// with success probability and cost (Definition 5), the expected quality
// improvement of a cleaning plan (Theorem 2), and the four plan-selection
// algorithms — the optimal dynamic program DP, the near-optimal Greedy, and
// the RandU/RandP baselines — together with a cleaning-agent simulator and
// exact/Monte-Carlo verification of the expected improvement.
package cleaning

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/probdb/topkclean/internal/quality"
	"github.com/probdb/topkclean/internal/uncertain"
)

// Validation errors.
var (
	ErrSpecSize     = errors.New("cleaning: spec length does not match x-tuple count")
	ErrBadCost      = errors.New("cleaning: cleaning cost must be a positive integer")
	ErrBadSCProb    = errors.New("cleaning: sc-probability must lie in [0, 1]")
	ErrBadBudget    = errors.New("cleaning: budget must be non-negative")
	ErrOverBudget   = errors.New("cleaning: plan exceeds budget")
	ErrBadPlan      = errors.New("cleaning: plan names an unknown x-tuple or a negative operation count")
	ErrNilEval      = errors.New("cleaning: context needs a quality evaluation")
	ErrEvalMissing  = errors.New("cleaning: evaluation does not match database")
	ErrStaleContext = errors.New("cleaning: context was planned against an older database version")
)

// Spec describes the cleaning environment: for each x-tuple, the cost c_l
// of one pclean operation (a natural number, Section V-A) and the
// sc-probability P_l that a pclean succeeds (Definition 5).
type Spec struct {
	Costs   []int
	SCProbs []float64
}

// Validate checks the spec against a database with m x-tuples.
func (s Spec) Validate(m int) error {
	if len(s.Costs) != m || len(s.SCProbs) != m {
		return fmt.Errorf("%w: costs=%d scprobs=%d m=%d", ErrSpecSize, len(s.Costs), len(s.SCProbs), m)
	}
	for l, c := range s.Costs {
		if c < 1 {
			return fmt.Errorf("x-tuple %d cost %d: %w", l, c, ErrBadCost)
		}
	}
	for l, p := range s.SCProbs {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("x-tuple %d sc-prob %v: %w", l, p, ErrBadSCProb)
		}
	}
	return nil
}

// UniformSpec builds a spec with the same cost and sc-probability for all m
// x-tuples; convenient in tests and examples.
func UniformSpec(m, cost int, scProb float64) Spec {
	s := Spec{Costs: make([]int, m), SCProbs: make([]float64, m)}
	for l := 0; l < m; l++ {
		s.Costs[l] = cost
		s.SCProbs[l] = scProb
	}
	return s
}

// Plan assigns to selected x-tuples the number of pclean operations to
// perform: Plan[l] = M_l (Definition 7's X and M in one structure; x-tuples
// absent from the map get zero operations).
type Plan map[int]int

// TotalCost returns sum_l c_l * M_l.
func (p Plan) TotalCost(spec Spec) int {
	total := 0
	for l, m := range p {
		total += spec.Costs[l] * m
	}
	return total
}

// checkPlan vets a plan — possibly one a client wrote by hand — against a
// validated context before the agent draws anything, and returns its
// total cost. Every x-tuple index must lie in [0, m) and every operation
// count must be non-negative (ErrBadPlan); the total cost must fit the
// budget (ErrOverBudget). The budget test divides rather than multiplies,
// so no operation count, however large, can wrap the cost past it.
func (ctx *Context) checkPlan(plan Plan) (int, error) {
	m := ctx.DB.NumGroups()
	for l, ops := range plan {
		if l < 0 || l >= m || ops < 0 {
			return 0, fmt.Errorf("%w: x-tuple %d, %d operations (m=%d)", ErrBadPlan, l, ops, m)
		}
	}
	spent := 0
	for l, ops := range plan {
		cost := ctx.Spec.Costs[l]
		if ops > (ctx.Budget-spent)/cost {
			return 0, ErrOverBudget
		}
		spent += cost * ops
	}
	return spent, nil
}

// Ops returns the total number of cleaning operations in the plan.
func (p Plan) Ops() int {
	total := 0
	for _, m := range p {
		total += m
	}
	return total
}

// Groups returns the number of distinct x-tuples selected (|X|).
func (p Plan) Groups() int {
	n := 0
	for _, m := range p {
		if m > 0 {
			n++
		}
	}
	return n
}

// SortedGroups returns the selected x-tuple indices in ascending order.
// Iterating a Plan through this keeps everything that consumes random
// draws (the simulator) or accumulates floating point (Theorem 2)
// deterministic, which Go's randomized map iteration order would break.
func (p Plan) SortedGroups() []int {
	out := make([]int, 0, len(p))
	for l, m := range p {
		if m > 0 {
			out = append(out, l)
		}
	}
	slices.Sort(out)
	return out
}

// Context carries everything a planner needs: the database, the query, its
// TP evaluation (whose group gains g(l,D) drive all improvement formulas),
// the cleaning spec, and the budget C.
type Context struct {
	DB     *uncertain.Database
	K      int
	Eval   *quality.Evaluation
	Spec   Spec
	Budget int

	// Version, when nonzero, records the database version the evaluation
	// was computed against. ExecuteApplyOn refuses to mutate a database whose
	// version has moved past it, catching plans made against stale gains.
	Version uint64
}

// NewContext evaluates the query quality on db and assembles a planning
// context. Use this when no TP evaluation is available yet; if one is
// (e.g. shared with query evaluation), build the Context directly.
func NewContext(db *uncertain.Database, k int, spec Spec, budget int) (*Context, error) {
	ev, err := quality.TP(db, k)
	if err != nil {
		return nil, err
	}
	ctx := &Context{DB: db, K: k, Eval: ev, Spec: spec, Budget: budget}
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	return ctx, nil
}

// Validate checks internal consistency, including (for version-stamped
// contexts) that the database has not been mutated since the evaluation
// was computed — stale gains would silently mis-price every plan.
func (ctx *Context) Validate() error {
	_, err := ctx.validate()
	return err
}

// validate is Validate that also returns the evaluation's non-zero group
// gains (quality.GainsOn), which every planner iterates.
func (ctx *Context) validate() (quality.Gains, error) {
	if ctx.DB == nil || !ctx.DB.Built() {
		return nil, uncertain.ErrNotBuilt
	}
	if ctx.Version != 0 && ctx.DB.Version() != ctx.Version {
		return nil, fmt.Errorf("%w: context version %d, database version %d",
			ErrStaleContext, ctx.Version, ctx.DB.Version())
	}
	if ctx.Eval == nil {
		return nil, ErrNilEval
	}
	gains, err := quality.GainsOn(ctx.DB, ctx.Eval)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEvalMissing, err)
	}
	if err := ctx.Spec.Validate(ctx.DB.NumGroups()); err != nil {
		return nil, err
	}
	if ctx.Budget < 0 {
		return nil, fmt.Errorf("budget %d: %w", ctx.Budget, ErrBadBudget)
	}
	return gains, nil
}

// candidates returns the x-tuples worth cleaning, with their gains, in
// ascending group order: nonzero |g(l,D)| (Lemma 5 excludes x-tuples whose
// tuples all have zero top-k probability), nonzero sc-probability, and
// cost within the budget. This is the set Z of Section V-C. Zero-gain
// x-tuples have no entry in gains, so iterating the sparse gains visits
// exactly the candidates a dense scan over every x-tuple would.
func (ctx *Context) candidates(gains quality.Gains) quality.Gains {
	var z quality.Gains
	for _, g := range gains {
		l := g.Group
		if g.Value >= -gainFloor {
			continue // Lemma 5: cleaning cannot improve anything
		}
		if ctx.Spec.SCProbs[l] <= 0 {
			continue // cleaning can never succeed
		}
		if ctx.Spec.Costs[l] > ctx.Budget {
			continue // a single operation already blows the budget
		}
		z = append(z, g)
	}
	return z
}

// gainFloor treats |g| below this as zero: such gains are floating-point
// dust whose "improvement" could never be observed.
const gainFloor = 1e-15
