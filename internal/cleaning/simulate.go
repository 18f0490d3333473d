package cleaning

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"github.com/probdb/topkclean/internal/quality"
	"github.com/probdb/topkclean/internal/uncertain"
)

// Outcome reports one simulated run of the cleaning agent.
type Outcome struct {
	DB          *uncertain.Database // the cleaned database D'
	Choices     CleanChoices        // successful x-tuples and their resolved alternatives
	OpsPlanned  int                 // sum of M_l
	OpsUsed     int                 // operations actually performed
	CostPlanned int                 // sum of c_l * M_l
	CostUsed    int                 // cost actually spent (early success stops further ops)
	NewQuality  float64             // S(D', Q)
	Improvement float64             // S(D', Q) - S(D, Q)

	eval *quality.Evaluation // Execute's evaluation of DB, reused by the adaptive loop
}

// Execute simulates the cleaning agent of Section V-A carrying out a plan:
// for each selected x-tuple it performs up to M_l pclean operations, each
// succeeding independently with probability P_l; on the first success the
// agent stops cleaning that x-tuple (the paper notes the leftover resources
// are not re-planned — that re-planning is future work), and the x-tuple
// resolves to one of its alternatives according to their existential
// probabilities. The cleaned database is rebuilt and its quality evaluated.
func Execute(ctx *Context, plan Plan, rng *rand.Rand) (*Outcome, error) {
	out, err := simulateAgent(ctx, plan, rng)
	if err != nil {
		return nil, err
	}
	db2, err := ctx.DB.Cleaned(out.Choices)
	if err != nil {
		return nil, err
	}
	ev, err := quality.TP(db2, ctx.K)
	if err != nil {
		return nil, err
	}
	out.DB = db2
	out.eval = ev
	out.NewQuality = ev.S
	out.Improvement = ev.S - ctx.Eval.S
	return out, nil
}

// ExecuteApplyOn simulates the cleaning agent against the context (whose
// DB may be an immutable snapshot) exactly like Execute — the same rng
// stream yields the same draws — and applies the successful outcomes to
// db, the live database, via Collapse instead of building a cleaned copy:
// this is what actually executing a cleaning plan does to a serving
// database. Pass ctx.DB as db when the context reads the live database
// itself. All collapses commit as one
// Batch — one version bump, one new epoch, and one merged dirty-rank
// watermark for the whole plan — so version-aware consumers re-evaluate
// the entire cleaning as a single incremental step (and a large plan
// cannot flood the bounded watermark log with one entry per resolved
// x-tuple). The returned Outcome's DB is the (mutated) live database;
// NewQuality and Improvement are left zero — the caller re-evaluates
// against the new version (the Engine does this with its memoized state,
// sharing the pass with subsequent queries).
//
// When ctx.Version is nonzero it must match db's current version, both up
// front and — authoritatively — inside the batch, under the writer lock:
// ErrStaleContext is returned before any mutation otherwise, catching
// plans made against gains that a later (possibly concurrent) mutation
// has invalidated. The version match also guarantees the plan's x-tuple
// indices and alternative choices, resolved against the snapshot, mean
// the same thing on the live database.
func ExecuteApplyOn(db *uncertain.Database, ctx *Context, plan Plan, rng *rand.Rand) (*Outcome, error) {
	if db == nil || !db.Built() {
		return nil, uncertain.ErrNotBuilt
	}
	if err := staleAgainst(db, ctx); err != nil {
		return nil, err
	}
	out, err := simulateAgent(ctx, plan, rng)
	if err != nil {
		return nil, err
	}
	if len(out.Choices) > 0 {
		err := db.Batch(func(b *uncertain.Batch) error {
			// Re-check under the writer lock: a mutation that committed
			// between the up-front check and here must abort the apply
			// before anything is collapsed.
			if err := staleAgainst(db, ctx); err != nil {
				return err
			}
			for _, l := range slices.Sorted(maps.Keys(out.Choices)) {
				if err := b.Collapse(l, out.Choices[l]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	out.DB = db
	return out, nil
}

// staleAgainst checks a version-stamped context against the live database
// it is about to mutate.
func staleAgainst(db *uncertain.Database, ctx *Context) error {
	if ctx == nil || ctx.Version == 0 {
		return nil
	}
	if v := db.Version(); v != ctx.Version {
		return fmt.Errorf("%w: context version %d, database version %d", ErrStaleContext, ctx.Version, v)
	}
	return nil
}

// simulateAgent draws the agent's operation outcomes for a plan: which
// x-tuples resolve, to which alternative, and how much of the planned
// effort was actually spent (the agent stops cleaning an x-tuple on its
// first success).
func simulateAgent(ctx *Context, plan Plan, rng *rand.Rand) (*Outcome, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	planned, err := ctx.checkPlan(plan)
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Choices:     CleanChoices{},
		OpsPlanned:  plan.Ops(),
		CostPlanned: planned,
	}
	// Iterate in ascending x-tuple order so a given rng seed always yields
	// the same simulated outcome (map order would randomize the draws).
	for _, l := range plan.SortedGroups() {
		m := plan[l]
		p := ctx.Spec.SCProbOf(l)
		cost := ctx.Spec.CostOf(l)
		for attempt := 1; attempt <= m; attempt++ {
			out.OpsUsed++
			out.CostUsed += cost
			if rng.Float64() < p {
				out.Choices[l] = sampleAlternative(ctx.DB.GroupAt(l), rng)
				break
			}
		}
	}
	return out, nil
}

// sampleAlternative draws the true value of a successfully cleaned x-tuple:
// alternative t_i with probability e_i (Equation 15's conditional), which
// includes the null alternative when the entity may be absent.
func sampleAlternative(g *uncertain.XTuple, rng *rand.Rand) int {
	u := rng.Float64()
	run := 0.0
	for ti, t := range g.Tuples {
		run += t.Prob
		if u < run {
			return ti
		}
	}
	return len(g.Tuples) - 1 // guard against rounding at the top end
}
