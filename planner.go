package topkclean

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"github.com/probdb/topkclean/internal/cleaning"
)

// Planner is a plan-selection algorithm as a first-class value: given a
// planning context, choose which x-tuples to clean and how many operations
// each gets. The four paper planners (Section V-D) are registered under
// the names "dp", "greedy", "randp", and "randu"; register additional
// strategies with RegisterPlanner.
//
// Plan must honour ctx: long-running planners return ctx.Err() promptly
// once ctx is cancelled. Implementations must be safe for concurrent use —
// one Planner value serves every query.
type Planner interface {
	// Name is the registry key, e.g. "greedy".
	Name() string
	// Plan selects a cleaning plan within c's budget.
	Plan(ctx context.Context, c *CleaningContext) (CleaningPlan, error)
}

// SeedablePlanner is implemented by randomized planners; WithSeed returns
// a derived Planner whose random stream starts from seed, leaving the
// receiver untouched. Deterministic planners simply don't implement it.
type SeedablePlanner interface {
	Planner
	WithSeed(seed int64) Planner
}

// Registry errors.
var (
	// ErrUnknownPlanner is returned when a planner name is not registered.
	ErrUnknownPlanner = errors.New("topkclean: unknown planner")
	// ErrDuplicatePlanner is returned when a name is registered twice.
	ErrDuplicatePlanner = errors.New("topkclean: planner already registered")
	// ErrNilPlanner is returned when registering nil or an empty name.
	ErrNilPlanner = errors.New("topkclean: planner must be non-nil with a non-empty name")
)

var (
	plannersMu sync.RWMutex
	planners   = map[string]Planner{}
)

// RegisterPlanner adds p to the global planner registry under p.Name().
// It is safe for concurrent use. Registering a nil planner, an empty
// name, or a name that is already taken is an error: the registry never
// silently replaces a planner.
func RegisterPlanner(p Planner) error {
	if p == nil || p.Name() == "" {
		return ErrNilPlanner
	}
	plannersMu.Lock()
	defer plannersMu.Unlock()
	if _, ok := planners[p.Name()]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicatePlanner, p.Name())
	}
	planners[p.Name()] = p
	return nil
}

// MustRegisterPlanner is RegisterPlanner that panics on error; intended
// for package init functions.
func MustRegisterPlanner(p Planner) {
	if err := RegisterPlanner(p); err != nil {
		panic(err)
	}
}

// LookupPlanner returns the planner registered under name.
func LookupPlanner(name string) (Planner, error) {
	plannersMu.RLock()
	p, ok := planners[name]
	plannersMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q (registered: %v)", ErrUnknownPlanner, name, Planners())
	}
	return p, nil
}

// Planners returns the names of all registered planners, sorted.
func Planners() []string {
	plannersMu.RLock()
	names := make([]string, 0, len(planners))
	for name := range planners {
		names = append(names, name)
	}
	plannersMu.RUnlock()
	sort.Strings(names)
	return names
}

// PlannerWithSeed resolves a planner by name and, when it is seedable,
// derives it with the given seed; deterministic planners are returned
// unchanged. This is the lookup Engine.PlanCleaning uses, exported for
// callers that need per-call seeds (e.g. averaging a random baseline over
// several seeds).
func PlannerWithSeed(name string, seed int64) (Planner, error) {
	p, err := LookupPlanner(name)
	if err != nil {
		return nil, err
	}
	if sp, ok := p.(SeedablePlanner); ok {
		p = sp.WithSeed(seed)
	}
	return p, nil
}

// The four built-in planners of Section V-D.

// dpPlanner is the optimal dynamic program (registered as "dp").
type dpPlanner struct{}

func (dpPlanner) Name() string { return "dp" }
func (dpPlanner) Plan(ctx context.Context, c *CleaningContext) (CleaningPlan, error) {
	return cleaning.DPContext(ctx, c)
}

// greedyPlanner is the near-optimal heap-based heuristic (registered as
// "greedy").
type greedyPlanner struct{}

func (greedyPlanner) Name() string { return "greedy" }
func (greedyPlanner) Plan(ctx context.Context, c *CleaningContext) (CleaningPlan, error) {
	return cleaning.GreedyContext(ctx, c)
}

// randPlanner covers both random baselines: weighted selects by top-k
// probability ("randp"), otherwise uniformly ("randu").
type randPlanner struct {
	name     string
	weighted bool
	seed     int64
}

func (p randPlanner) Name() string { return p.name }
func (p randPlanner) WithSeed(seed int64) Planner {
	p.seed = seed
	return p
}
func (p randPlanner) Plan(ctx context.Context, c *CleaningContext) (CleaningPlan, error) {
	rng := rand.New(rand.NewSource(p.seed))
	if p.weighted {
		return cleaning.RandPContext(ctx, c, rng)
	}
	return cleaning.RandUContext(ctx, c, rng)
}

func init() {
	MustRegisterPlanner(dpPlanner{})
	MustRegisterPlanner(greedyPlanner{})
	MustRegisterPlanner(randPlanner{name: "randp", weighted: true, seed: 1})
	MustRegisterPlanner(randPlanner{name: "randu", weighted: false, seed: 1})
}
