package topkq_test

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"math/rand"
	"testing"

	"github.com/probdb/topkclean/internal/quality"
	"github.com/probdb/topkclean/internal/topkq"
	"github.com/probdb/topkclean/internal/uncertain"
)

// opaque hides a database behind topkq.Source, so nothing can tell it is
// a *uncertain.Database: the scan, the answer passes and TP run exactly
// what they run over the shard coordinator's merge. It walks the rank
// order through Sorted rather than Database.Ranked, and records hi, one
// past the deepest rank position any pass asked it for.
type opaque struct {
	db *uncertain.Database
	hi int
}

func (o *opaque) NumTuples() int { return o.db.NumTuples() }

func (o *opaque) NumGroups() int { return o.db.NumGroups() }

func (o *opaque) GroupAt(g int) *uncertain.XTuple { return o.db.GroupAt(g) }

func (o *opaque) Ranked(pos int) iter.Seq2[*uncertain.Tuple, int] {
	return func(yield func(*uncertain.Tuple, int) bool) {
		sorted := o.db.Sorted()
		for i := pos; i < len(sorted); i++ {
			o.hi = max(o.hi, i+1)
			if !yield(sorted[i], sorted[i].Group) {
				return
			}
		}
	}
}

// randomStreamDB builds a database with heavy score ties and mixed masses,
// the regime that stresses every branch of the scan switch.
func randomStreamDB(t *testing.T, seed int64, groups int) *uncertain.Database {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := uncertain.New()
	id := 0
	for g := 0; g < groups; g++ {
		name := fmt.Sprintf("g%c%d", 'a'+g%26, g)
		if rng.Intn(12) == 0 {
			if err := db.AddAbsentXTuple(name); err != nil {
				t.Fatal(err)
			}
			continue
		}
		alts := 1 + rng.Intn(4)
		ts := make([]uncertain.Tuple, alts)
		budget := 1.0
		for a := range ts {
			p := budget * (0.1 + 0.85*rng.Float64()) / float64(alts-a)
			if a == alts-1 && rng.Intn(2) == 0 {
				p = budget // full mass: exercises the fullGroups path
			}
			budget -= p
			id++
			ts[a] = uncertain.Tuple{
				ID:    fmt.Sprintf("t%d", id),
				Attrs: []float64{float64(rng.Intn(8))}, // few distinct scores: ties everywhere
				Prob:  p,
			}
		}
		if err := db.AddXTuple(name, ts...); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Build(uncertain.ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestOpaqueSourceBitIdentical is the differential between the two kinds
// of source: over tie-heavy databases, the PSR scan, the three answer
// semantics and TP through an opaque source must reproduce the direct
// database path bit for bit, and no pass may ask the source for a
// position past the processed prefix.
func TestOpaqueSourceBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		db := randomStreamDB(t, seed, 40)
		for _, k := range []int{1, 3, 7} {
			stage := fmt.Sprintf("seed %d k %d", seed, k)
			src := &opaque{db: db}
			want, err := topkq.RankProbabilities(db, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := topkq.RankProbabilities(src, k)
			if err != nil {
				t.Fatal(err)
			}
			compareInfo(t, stage, got, want)

			wantUK, err := topkq.UKRanks(db, want)
			if err != nil {
				t.Fatal(err)
			}
			gotUK, err := topkq.UKRanks(src, got)
			if err != nil {
				t.Fatal(err)
			}
			compareRanked(t, gotUK, wantUK)
			for _, th := range []float64{0, 0.3, 0.6} {
				compareScored(t, topkq.PTK(src, got, th), topkq.PTK(db, want, th))
			}
			compareScored(t, topkq.GlobalTopK(src, got), topkq.GlobalTopK(db, want))
			compareTP(t, stage, src, got, db, want)

			if src.hi != got.Processed {
				t.Fatalf("%s: passes read %d positions of a %d-position prefix", stage, src.hi, got.Processed)
			}

			light, err := topkq.TopKProbabilities(src, k)
			if err != nil {
				t.Fatal(err)
			}
			wantLight, err := topkq.TopKProbabilities(db, k)
			if err != nil {
				t.Fatal(err)
			}
			compareInfo(t, stage+" light", light, wantLight)
		}
	}
}

// TestOpaqueSourceResume drives Resume through an opaque source across a
// chain of random mutations: every resumed info must be bit-identical to
// a fresh scan of the mutated database, and TP over it to a fresh TP. At
// k = 15 the scan runs past several checkpoints and takes the rebuild
// path, so replays restore checkpoints through the source's GroupAt.
func TestOpaqueSourceResume(t *testing.T) {
	const k, steps = 15, 80
	rng := rand.New(rand.NewSource(11))
	db := randomStreamDB(t, 5, 200)
	src := &opaque{db: db}
	priorFull, err := topkq.RankProbabilities(src, k)
	if err != nil {
		t.Fatal(err)
	}
	priorLight, err := topkq.TopKProbabilities(src, k)
	if err != nil {
		t.Fatal(err)
	}
	version := db.Version()
	pureHits := 0
	for step := 0; step < steps; step++ {
		label := mutate(t, rng, db, step)
		wm, ok := db.DirtySince(version)
		if !ok {
			t.Fatalf("step %d (%s): no watermark", step, label)
		}
		version = db.Version()
		stage := fmt.Sprintf("step %d (%s, watermark %d)", step, label, wm)

		fresh, err := topkq.RankProbabilities(db, k)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := topkq.Resume(src, priorFull, wm)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		compareInfo(t, stage, resumed, fresh)
		compareTP(t, stage, src, resumed, db, fresh)

		freshLight, err := topkq.TopKProbabilities(db, k)
		if err != nil {
			t.Fatal(err)
		}
		resumedLight, err := topkq.Resume(src, priorLight, wm)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		compareInfo(t, stage+" light", resumedLight, freshLight)
		if wm >= resumed.Processed {
			pureHits++
		}
		priorFull, priorLight = resumed, resumedLight
	}
	if pureHits == 0 || pureHits == steps {
		t.Fatalf("%d of %d steps were pure cache hits; want both hits and replays", pureHits, steps)
	}
}

// mutate applies one random insert, delete, reweight or collapse to db.
func mutate(t *testing.T, rng *rand.Rand, db *uncertain.Database, step int) string {
	t.Helper()
	m := db.NumGroups()
	l := rng.Intn(m)
	var err error
	label := ""
	switch rng.Intn(4) {
	case 0:
		label = "insert"
		err = db.InsertXTuple(fmt.Sprintf("new%d", step),
			uncertain.Tuple{ID: fmt.Sprintf("n%d.0", step), Attrs: []float64{float64(rng.Intn(8))}, Prob: 0.4},
			uncertain.Tuple{ID: fmt.Sprintf("n%d.1", step), Attrs: []float64{float64(rng.Intn(8))}, Prob: 0.3})
	case 1:
		if m <= 10 {
			return "skip"
		}
		label = "delete"
		err = db.DeleteXTuple(l)
	case 2:
		real := db.GroupAt(l).RealTuples()
		if len(real) == 0 {
			return "skip"
		}
		label = "reweight"
		probs := make([]float64, len(real))
		for i := range probs {
			probs[i] = 0.05 + rng.Float64()*(0.9/float64(len(probs)))
		}
		err = db.Reweight(l, probs)
	default:
		label = "collapse"
		err = db.Collapse(l, rng.Intn(len(db.GroupAt(l).Tuples)))
	}
	if err != nil {
		t.Fatalf("step %d %s: %v", step, label, err)
	}
	return label
}

// TestSourceArgErrors pins the argument checks on the generic path.
func TestSourceArgErrors(t *testing.T) {
	src := &opaque{db: randomStreamDB(t, 99, 5)}
	if _, err := topkq.TopKProbabilities(src, 0); !errors.Is(err, topkq.ErrBadK) {
		t.Fatalf("k=0: err = %v, want ErrBadK", err)
	}
	if _, err := topkq.RankProbabilities(src, src.NumGroups()+1); !errors.Is(err, topkq.ErrKTooLarge) {
		t.Fatalf("k>m: err = %v, want ErrKTooLarge", err)
	}
	if src.hi != 0 {
		t.Fatalf("a rejected query read %d positions", src.hi)
	}
}

func compareInfo(t *testing.T, stage string, got, want *topkq.RankInfo) {
	t.Helper()
	if got.K != want.K || got.N != want.N || got.Processed != want.Processed || got.Rebuilds != want.Rebuilds {
		t.Fatalf("%s: (K, N, Processed, Rebuilds) = (%d, %d, %d, %d), want (%d, %d, %d, %d)", stage,
			got.K, got.N, got.Processed, got.Rebuilds, want.K, want.N, want.Processed, want.Rebuilds)
	}
	if len(got.TopK) != len(want.TopK) || got.HasRho() != want.HasRho() {
		t.Fatalf("%s: %d top-k probabilities (rho %v), want %d (rho %v)", stage,
			len(got.TopK), got.HasRho(), len(want.TopK), want.HasRho())
	}
	for i := range want.TopK {
		if math.Float64bits(got.TopK[i]) != math.Float64bits(want.TopK[i]) {
			t.Fatalf("%s: p[%d] bits differ: %v vs %v", stage, i, got.TopK[i], want.TopK[i])
		}
		for h := 1; h <= want.K; h++ {
			if math.Float64bits(got.Rho(i, h)) != math.Float64bits(want.Rho(i, h)) {
				t.Fatalf("%s: rho[%d][%d] bits differ", stage, i, h)
			}
		}
	}
}

// compareTP requires TP over (src, got) to reproduce TP over (db, want):
// the score, every weight and every group gain, bit for bit.
func compareTP(t *testing.T, stage string, src topkq.Source, got *topkq.RankInfo, db *uncertain.Database, want *topkq.RankInfo) {
	t.Helper()
	evG, err := quality.TPFromInfo(src, got)
	if err != nil {
		t.Fatal(err)
	}
	evW, err := quality.TPFromInfo(db, want)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(evG.S) != math.Float64bits(evW.S) {
		t.Fatalf("%s: TP S bits differ: %v vs %v", stage, evG.S, evW.S)
	}
	if len(evG.Omega) != len(evW.Omega) {
		t.Fatalf("%s: %d weights, want %d", stage, len(evG.Omega), len(evW.Omega))
	}
	for i := range evW.Omega {
		if math.Float64bits(evG.Omega[i]) != math.Float64bits(evW.Omega[i]) {
			t.Fatalf("%s: omega[%d] bits differ", stage, i)
		}
	}
	gG, gW := evG.Gains(), evW.Gains()
	if len(gG) != len(gW) {
		t.Fatalf("%s: %d gains, want %d", stage, len(gG), len(gW))
	}
	for i := range gW {
		if gG[i].Group != gW[i].Group || math.Float64bits(gG[i].Value) != math.Float64bits(gW[i].Value) {
			t.Fatalf("%s: gain %d = %+v, want %+v", stage, i, gG[i], gW[i])
		}
	}
}

func compareRanked(t *testing.T, got, want []topkq.RankedAnswer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("UKRanks length %d != %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.H != w.H || g.ID != w.ID || g.Rank != w.Rank ||
			math.Float64bits(g.Prob) != math.Float64bits(w.Prob) ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			t.Fatalf("UKRanks[%d]: %+v != %+v", i, g, w)
		}
	}
}

func compareScored(t *testing.T, got, want []topkq.ScoredAnswer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("scored length %d != %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Rank != w.Rank ||
			math.Float64bits(g.Prob) != math.Float64bits(w.Prob) ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			t.Fatalf("scored[%d]: %+v != %+v", i, g, w)
		}
	}
}
