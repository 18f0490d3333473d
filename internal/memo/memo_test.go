package memo

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
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
	carry := func(cur, prior *uncertain.Database, _ *topkq.RankInfo) (int, bool) {
		return cur.DirtySince(prior.Version())
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
	res, err := st.Result(0)
	if err != nil {
		t.Fatal(err)
	}
	gotUK, gotGTK := res.UKRanks, res.GlobalTopK
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

// pairLadder builds m x-tuples of two equally likely alternatives, x-tuple
// g's two just below x-tuple g-1's: an x-tuple is certain to have placed
// an alternative once the scan has passed both of its own, so Lemma 2
// stops after 2k positions and every x-tuple from index k on lies wholly
// below the termination point.
func pairLadder(t *testing.T, m int) *uncertain.Database {
	t.Helper()
	db := uncertain.New()
	for g := 0; g < m; g++ {
		if err := db.AddXTuple(fmt.Sprintf("G%d", g),
			uncertain.Tuple{ID: fmt.Sprintf("g%d.a", g), Attrs: []float64{float64(1000 - 2*g)}, Prob: 0.5},
			uncertain.Tuple{ID: fmt.Sprintf("g%d.b", g), Attrs: []float64{float64(999 - 2*g)}, Prob: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Build(uncertain.ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	return db
}

// sameEvalBits requires two evaluations to agree bit for bit: S, every
// weight, and every gain with its group.
func sameEvalBits(t *testing.T, stage string, got, want *quality.Evaluation) {
	t.Helper()
	if math.Float64bits(got.S) != math.Float64bits(want.S) {
		t.Fatalf("%s: S = %v, fresh %v", stage, got.S, want.S)
	}
	if len(got.Omega) != len(want.Omega) {
		t.Fatalf("%s: %d weights, fresh %d", stage, len(got.Omega), len(want.Omega))
	}
	for i := range got.Omega {
		if math.Float64bits(got.Omega[i]) != math.Float64bits(want.Omega[i]) {
			t.Fatalf("%s: Omega[%d] = %v, fresh %v", stage, i, got.Omega[i], want.Omega[i])
		}
	}
	g, w := got.Gains(), want.Gains()
	if len(g) != len(w) {
		t.Fatalf("%s: %d gains, fresh %d", stage, len(g), len(w))
	}
	for i := range g {
		if g[i].Group != w[i].Group || math.Float64bits(g[i].Value) != math.Float64bits(w[i].Value) {
			t.Fatalf("%s: gain %d = %+v, fresh %+v", stage, i, g[i], w[i])
		}
	}
}

// TestPureHitAcrossRenumberingDelete pins the memo's pure cache hits on
// snapshot views. A tail delete below the termination point moves no
// slot, so the evaluation is carried: its gains are the prior's slice. A
// delete below the termination point that renumbers an x-tuple of the
// prefix is still a pure hit, but its resume re-resolves the moved slot,
// and the evaluation is recomputed from it: bit for bit a fresh one, its
// gains keyed by the new indices.
func TestPureHitAcrossRenumberingDelete(t *testing.T) {
	const k = 3
	db := pairLadder(t, 40)
	m := snapshots(db)
	ctx := context.Background()
	get := func(stage string) *State[*uncertain.Database] {
		t.Helper()
		st, err := m.Get(ctx, k, false)
		if err != nil {
			t.Fatal(err)
		}
		info, err := topkq.TopKProbabilities(st.View, k)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := quality.TPFromInfo(st.View, info)
		if err != nil {
			t.Fatal(err)
		}
		sameEvalBits(t, stage, st.Eval, fresh)
		return st
	}
	pureHit := func(stage string, st, prior *State[*uncertain.Database]) {
		t.Helper()
		if st.Info.Processed != prior.Info.Processed || &st.Info.TopK[0] != &prior.Info.TopK[0] {
			t.Fatalf("%s: not a pure hit (processed %d, prior %d)", stage, st.Info.Processed, prior.Info.Processed)
		}
	}

	st := get("fresh")
	if st.Info.Processed != 2*k || len(st.Eval.Gains()) == 0 {
		t.Fatalf("fresh: %d positions, %d gains; the ladder needs %d and some", st.Info.Processed, len(st.Eval.Gains()), 2*k)
	}
	if err := db.DeleteXTuple(db.NumGroups() - 1); err != nil {
		t.Fatal(err)
	}
	tail := get("tail delete")
	pureHit("tail delete", tail, st)
	if !tail.Info.Kept() || &tail.Eval.Gains()[0] != &st.Eval.Gains()[0] {
		t.Fatalf("tail delete: kept %v; the evaluation was not carried", tail.Info.Kept())
	}

	// A new top x-tuple takes the highest index, so a delete below the
	// prefix renumbers it.
	if err := db.InsertXTuple("top",
		uncertain.Tuple{ID: "top.a", Attrs: []float64{2000}, Prob: 0.5},
		uncertain.Tuple{ID: "top.b", Attrs: []float64{1999}, Prob: 0.5}); err != nil {
		t.Fatal(err)
	}
	st = get("insert")
	top := db.NumGroups() - 1
	if err := db.DeleteXTuple(10); err != nil {
		t.Fatal(err)
	}
	moved := get("renumbering delete")
	pureHit("renumbering delete", moved, st)
	if moved.Info.Kept() {
		t.Fatal("renumbering delete: the pure hit kept every slot")
	}
	if g := moved.Eval.Gain(top - 1); g == 0 || g != st.Eval.Gain(top) || moved.Eval.Gain(top) != 0 {
		t.Fatalf("renumbering delete: the top x-tuple's gain %v at its new index %d, %v at its old; prior %v", g, top-1, moved.Eval.Gain(top), st.Eval.Gain(top))
	}
}

// TestConcurrentFirstRho races the first Rho calls on shared memo infos:
// a full state and the pure hit a tail insert carries it to share one
// lazily built rank-probability table, and goroutines reading both at
// once, from opposite ends, must each see a fresh pass's bits. Run it
// under -race.
func TestConcurrentFirstRho(t *testing.T) {
	const k = 15
	db := deepDB(t, 200, 10)
	m := snapshots(db)
	ctx := context.Background()
	st, err := m.Get(ctx, k, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.Info.Processed == st.Info.N {
		t.Fatal("the scan did not terminate early; the pure hit needs it to")
	}
	if err := db.InsertXTuple("low", uncertain.Tuple{ID: "low.0", Attrs: []float64{-1}, Prob: 0.5}); err != nil {
		t.Fatal(err)
	}
	hit, err := m.Get(ctx, k, true)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Info == st.Info || &hit.Info.TopK[0] != &st.Info.TopK[0] {
		t.Fatal("the tail insert did not carry the state as a pure hit")
	}
	fresh, err := topkq.RankProbabilities(hit.View, k)
	if err != nil {
		t.Fatal(err)
	}
	n := fresh.Processed
	want := make([]float64, n*k)
	for i := range n {
		for h := 1; h <= k; h++ {
			want[i*k+h-1] = fresh.Rho(i, h)
		}
	}
	infos := []*topkq.RankInfo{st.Info, hit.Info}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			info := infos[g%2]
			for j := range n {
				i := j
				if g%4 >= 2 {
					i = n - 1 - j
				}
				for h := 1; h <= k; h++ {
					if got := info.Rho(i, h); math.Float64bits(got) != math.Float64bits(want[i*k+h-1]) {
						errs <- fmt.Sprintf("reader %d: rho_%d(%d) = %v, fresh %v", g, i, h, got, want[i*k+h-1])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
