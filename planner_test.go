package topkclean

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/probdb/topkclean/internal/cleaning"
)

func TestPlannersListsBuiltins(t *testing.T) {
	names := Planners()
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, want := range []string{"dp", "greedy", "randp", "randu"} {
		if !seen[want] {
			t.Fatalf("built-in planner %q missing from registry (%v)", want, names)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Planners() not sorted: %v", names)
		}
	}
}

func TestRegisterPlannerRejectsDuplicatesAndNil(t *testing.T) {
	if err := RegisterPlanner(nil); !errors.Is(err, ErrNilPlanner) {
		t.Fatalf("nil planner: got %v", err)
	}
	if err := RegisterPlanner(namedPlanner("")); !errors.Is(err, ErrNilPlanner) {
		t.Fatalf("empty name: got %v", err)
	}
	if err := RegisterPlanner(namedPlanner("dp")); !errors.Is(err, ErrDuplicatePlanner) {
		t.Fatalf("duplicate of built-in dp: got %v", err)
	}
	if err := RegisterPlanner(namedPlanner("test-unique-planner")); err != nil {
		t.Fatalf("fresh name: %v", err)
	}
	if err := RegisterPlanner(namedPlanner("test-unique-planner")); !errors.Is(err, ErrDuplicatePlanner) {
		t.Fatalf("re-registration: got %v", err)
	}
	if _, err := LookupPlanner("test-unique-planner"); err != nil {
		t.Fatalf("lookup after register: %v", err)
	}
}

func TestLookupPlannerUnknown(t *testing.T) {
	_, err := LookupPlanner("definitely-not-registered")
	if !errors.Is(err, ErrUnknownPlanner) {
		t.Fatalf("got %v, want ErrUnknownPlanner", err)
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	const writers = 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("concurrent-planner-%d", w)
			if err := RegisterPlanner(namedPlanner(name)); err != nil {
				t.Errorf("register %s: %v", name, err)
			}
			// Interleave reads with the writes.
			Planners()
			if _, err := LookupPlanner(name); err != nil {
				t.Errorf("lookup %s: %v", name, err)
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < writers; w++ {
		if _, err := LookupPlanner(fmt.Sprintf("concurrent-planner-%d", w)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCustomPlannerThroughEngine(t *testing.T) {
	// A planner that cleans nothing is still a legal strategy.
	MustRegisterPlanner(namedPlanner("noop"))
	db := paperUDB1(t)
	eng, err := New(db, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	spec := UniformCleaningSpec(db.NumGroups(), 1, 0.5)
	plan, _, err := eng.PlanCleaning(context.Background(), "noop", spec, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 0 {
		t.Fatalf("noop planner returned %v", plan)
	}
}

// TestRegistryPlansMatchLegacySwitch is the parity acceptance check: for
// all four paper planners, the registry paths (PlannerWithSeed and
// Engine.PlanCleaning) must produce byte-identical plans to a hardwired
// switch over the internal cleaning.DPContext/GreedyContext/RandPContext/
// RandUContext calls, planned against a from-scratch context.
func TestRegistryPlansMatchLegacySwitch(t *testing.T) {
	dbs := map[string]*Database{"udb1": paperUDB1(t)}
	{
		cfg := DefaultSyntheticConfig()
		cfg.NumXTuples = 250
		db, err := GenerateSynthetic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dbs["synthetic"] = db
	}
	{
		cfg := DefaultMOVConfig()
		cfg.NumXTuples = 250
		db, err := GenerateMOV(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dbs["mov"] = db
	}

	legacySwitch := func(c *CleaningContext, method string, seed int64) (CleaningPlan, error) {
		switch method {
		case "dp":
			return cleaning.DPContext(bg, c)
		case "greedy":
			return cleaning.GreedyContext(bg, c)
		case "randu":
			return cleaning.RandUContext(bg, c, rand.New(rand.NewSource(seed)))
		case "randp":
			return cleaning.RandPContext(bg, c, rand.New(rand.NewSource(seed)))
		default:
			return nil, fmt.Errorf("unknown method %q", method)
		}
	}

	for name, db := range dbs {
		k := 2
		if db.NumGroups() > 100 {
			k = 15
		}
		spec, err := DefaultCleaningSpec(db.NumGroups(), 77)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 42} {
			eng, err := New(db, WithK(k), WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []string{"dp", "greedy", "randp", "randu"} {
				legacyCtx, err := cleaning.NewContext(db, k, spec, 60)
				if err != nil {
					t.Fatal(err)
				}
				want, err := legacySwitch(legacyCtx, m, seed)
				if err != nil {
					t.Fatal(err)
				}
				p, err := PlannerWithSeed(m, seed)
				if err != nil {
					t.Fatal(err)
				}
				viaRegistry, err := p.Plan(bg, legacyCtx)
				if err != nil {
					t.Fatal(err)
				}
				viaEngine, _, err := eng.PlanCleaning(bg, m, spec, 60)
				if err != nil {
					t.Fatal(err)
				}
				wantBytes := planBytes(want)
				if got := planBytes(viaRegistry); !bytes.Equal(got, wantBytes) {
					t.Fatalf("%s/%s seed %d: registry plan %s, legacy switch %s", name, m, seed, got, wantBytes)
				}
				if got := planBytes(viaEngine); !bytes.Equal(got, wantBytes) {
					t.Fatalf("%s/%s seed %d: engine plan %s, legacy switch %s", name, m, seed, got, wantBytes)
				}
			}
		}
	}
}

// planBytes serializes a plan deterministically (sorted by x-tuple index)
// so plans can be compared byte for byte.
func planBytes(p CleaningPlan) []byte {
	var buf bytes.Buffer
	for _, l := range p.SortedGroups() {
		fmt.Fprintf(&buf, "%d:%d;", l, p[l])
	}
	return buf.Bytes()
}

// namedPlanner is a trivial deterministic Planner for registry tests; it
// always returns the empty plan.
type namedPlanner string

func (p namedPlanner) Name() string { return string(p) }
func (p namedPlanner) Plan(ctx context.Context, c *CleaningContext) (CleaningPlan, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return CleaningPlan{}, nil
}
