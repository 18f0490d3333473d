package memo

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/probdb/topkclean/internal/quality"
	"github.com/probdb/topkclean/internal/topkq"
	"github.com/probdb/topkclean/internal/uncertain"
)

// snapshots is the engine's view of a database: its pinned epochs, carried
// by the database's own watermark log.
func snapshots(db *uncertain.Database) *Memo[*uncertain.Database] {
	pin := func() (*uncertain.Database, error) {
		if s := db.Snapshot(); s != nil {
			return s, nil
		}
		return nil, uncertain.ErrNotBuilt
	}
	carry := func(cur, prior *uncertain.Database, _ *topkq.RankInfo) (int, bool, bool) {
		wm, ok := cur.DirtySince(prior.Version())
		return wm, ok && cur.GroupIndicesStableSince(prior.Version()), ok
	}
	return New(pin, carry)
}

// deepDB builds m x-tuples of alts equally likely alternatives with
// scores drawn uniformly, none with a null: an x-tuple certainly
// contributes only once the scan has passed all its alternatives, so
// Lemma 2 stops late, and the long prefix holds hundreds of exclusion
// positions (439 at m = 400, alts = 10, k = 15): enough for a helper to
// join the pass.
func deepDB(t *testing.T, m, alts int) *uncertain.Database {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	db := uncertain.New()
	for g := 0; g < m; g++ {
		ts := make([]uncertain.Tuple, alts)
		for i := range ts {
			ts[i] = uncertain.Tuple{
				ID:    fmt.Sprintf("g%d.%d", g, i),
				Attrs: []float64{rng.Float64() * 1000},
				Prob:  1 / float64(alts),
			}
		}
		if err := db.AddXTuple(fmt.Sprintf("G%d", g), ts...); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Build(uncertain.ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	return db
}

// checkAgainstSerial recomputes st's view from scratch and requires the
// memo's evaluation and answers to match it exactly.
func checkAgainstSerial(t *testing.T, stage string, st *State[*uncertain.Database], k int) {
	t.Helper()
	info, err := topkq.RankProbabilities(st.View, k)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := quality.TPFromInfo(st.View, info)
	if err != nil {
		t.Fatal(err)
	}
	uk, err := topkq.UKRanks(st.View, info)
	if err != nil {
		t.Fatal(err)
	}
	gtk := topkq.GlobalTopK(st.View, info)

	if st.Eval.S != ev.S {
		t.Fatalf("%s: S = %v, serial %v", stage, st.Eval.S, ev.S)
	}
	if !reflect.DeepEqual(st.Eval.Omega, ev.Omega) {
		t.Fatalf("%s: Omega differs from the serial pass", stage)
	}
	if !reflect.DeepEqual(st.Eval.Gains(), ev.Gains()) {
		t.Fatalf("%s: gains differ from the serial pass", stage)
	}
	gotUK, gotGTK, err := st.Answers()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotUK, uk) {
		t.Fatalf("%s: U-kRanks %v, serial %v", stage, topkq.FormatRanked(gotUK), topkq.FormatRanked(uk))
	}
	if !reflect.DeepEqual(gotGTK, gtk) {
		t.Fatalf("%s: Global-topk %v, serial %v", stage, topkq.FormatScored(gotGTK), topkq.FormatScored(gtk))
	}
}

// TestFullMissMatchesSerial pins a full miss at any core count: with one
// and with two cores (so the resumed scans' exclusion products run on one
// or two workers), a full state computed on a miss — fresh, and resumed
// after each of a run of mutations — carries the evaluation and answers
// of from-scratch passes over its view.
func TestFullMissMatchesSerial(t *testing.T) {
	const k = 15
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			db := deepDB(t, 400, 10)
			m := snapshots(db)
			ctx := context.Background()
			st, err := m.Get(ctx, k, true)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstSerial(t, "fresh", st, k)

			rng := rand.New(rand.NewSource(9))
			for step := 0; step < 12; step++ {
				// Reweight an x-tuple met inside the processed prefix, so
				// the next Get resumes a real scan rather than a pure hit.
				g := db.AtRank(rng.Intn(st.Info.Processed)).Group
				real := db.GroupAt(g).RealTuples()
				if len(real) == 0 {
					continue
				}
				probs := make([]float64, len(real))
				for i := range probs {
					probs[i] = (0.1 + 0.8*rng.Float64()) / float64(len(probs))
				}
				if err := db.Reweight(g, probs); err != nil {
					t.Fatal(err)
				}
				if st, err = m.Get(ctx, k, true); err != nil {
					t.Fatal(err)
				}
				if st.View.Version() != db.Version() {
					t.Fatalf("step %d: state at version %d, database at %d", step, st.View.Version(), db.Version())
				}
				checkAgainstSerial(t, fmt.Sprintf("step %d", step), st, k)
			}
		})
	}
}
