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

func (o *opaque) AtRank(pos int) *uncertain.Tuple {
	sorted := o.db.Sorted()
	if pos >= len(sorted) {
		return nil
	}
	o.hi = max(o.hi, pos+1)
	return sorted[pos]
}

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

// counting is a Source over a database that counts the rank positions it
// is read at: each AtRank call and each pair its Ranked iterators yield.
type counting struct {
	db   *uncertain.Database
	read int
}

func (c *counting) NumTuples() int { return c.db.NumTuples() }

func (c *counting) NumGroups() int { return c.db.NumGroups() }

func (c *counting) GroupAt(g int) *uncertain.XTuple { return c.db.GroupAt(g) }

func (c *counting) AtRank(pos int) *uncertain.Tuple {
	c.read++
	return c.db.AtRank(pos)
}

func (c *counting) Ranked(pos int) iter.Seq2[*uncertain.Tuple, int] {
	return func(yield func(*uncertain.Tuple, int) bool) {
		for t, g := range c.db.Ranked(pos) {
			c.read++
			if !yield(t, g) {
				return
			}
		}
	}
}

// reads returns the number of positions f read from c.
func (c *counting) reads(f func()) int {
	c.read = 0
	f()
	return c.read
}

// checkPointReads requires the passes over info to read src only at
// their answers: TP reads no position, and U-kRanks, Global-topk and
// PT-k at most one per answer, none of them a null.
func checkPointReads(t *testing.T, stage string, src *counting, info *topkq.RankInfo) {
	t.Helper()
	if n := src.reads(func() {
		if _, err := quality.TPFromInfo(src, info); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("%s: TP read %d positions, want 0", stage, n)
	}
	var uk []topkq.RankedAnswer
	n := src.reads(func() {
		var err error
		if uk, err = topkq.UKRanks(src, info); err != nil {
			t.Fatal(err)
		}
	})
	if n > len(uk) {
		t.Fatalf("%s: U-kRanks read %d positions for %d answers", stage, n, len(uk))
	}
	for _, a := range uk {
		if a.Tuple.Null {
			t.Fatalf("%s: U-kRanks answered rank %d with a null", stage, a.H)
		}
	}
	var scored []topkq.ScoredAnswer
	check := func(what string, f func() []topkq.ScoredAnswer) {
		t.Helper()
		if n := src.reads(func() { scored = f() }); n > len(scored) {
			t.Fatalf("%s: %s read %d positions for %d answers", stage, what, n, len(scored))
		}
		for _, a := range scored {
			if a.Tuple.Null {
				t.Fatalf("%s: %s answered with a null at rank %d", stage, what, a.Rank)
			}
		}
	}
	check("Global-topk", func() []topkq.ScoredAnswer { return topkq.GlobalTopK(src, info) })
	for _, th := range []float64{0, 0.3} {
		check(fmt.Sprintf("PT-k at %v", th), func() []topkq.ScoredAnswer { return topkq.PTK(src, info, th) })
	}
}

// TestPassesReadSourceOnlyAtAnswers pins the one read path of the
// processed prefix: after the scan has walked it, the quality and answer
// passes read the source only at their answers — over a fresh scan, over
// pure-hit resumes (one that keeps every slot, one whose delete renumbered
// prefix x-tuples), and over a prefix that reaches the nulls, where nulls
// have the best rank probabilities.
func TestPassesReadSourceOnlyAtAnswers(t *testing.T) {
	const k = 5
	rng := rand.New(rand.NewSource(31))
	db := uncertain.New()
	for g := 0; g < 60; g++ {
		// Every other x-tuple is certain, so Lemma 2 stops the scan early.
		n, mass := 1, 1.0
		if g%2 == 1 {
			n, mass = 2, 0.6
		}
		ts := make([]uncertain.Tuple, n)
		for i := range ts {
			ts[i] = uncertain.Tuple{ID: fmt.Sprintf("g%d.%d", g, i), Attrs: []float64{rng.Float64() * 100}, Prob: mass / float64(n)}
		}
		if err := db.AddXTuple(fmt.Sprintf("G%d", g), ts...); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Build(uncertain.ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	src := &counting{db: db}
	info, err := topkq.RankProbabilities(src, k)
	if err != nil {
		t.Fatal(err)
	}
	if info.Processed == info.N {
		t.Fatal("the scan did not terminate early; the pure hits need it to")
	}
	checkPointReads(t, "fresh", src, info)

	// A pure hit that keeps every slot: a new x-tuple ranked below the
	// prefix takes the next group index.
	pureHit := func(stage string) *topkq.RankInfo {
		t.Helper()
		wm, ok := db.DirtySince(db.Version() - 1)
		if !ok || wm < info.Processed {
			t.Fatalf("%s: watermark %d (ok %v) inside the prefix of %d", stage, wm, ok, info.Processed)
		}
		resumed, err := topkq.Resume(src, info, wm)
		if err != nil {
			t.Fatal(err)
		}
		return resumed
	}
	if err := db.InsertXTuple("low", uncertain.Tuple{ID: "low.0", Attrs: []float64{-1}, Prob: 0.5}); err != nil {
		t.Fatal(err)
	}
	kept := pureHit("insert")
	if !kept.Kept() {
		t.Fatal("insert below the prefix: the pure hit moved a slot")
	}
	checkPointReads(t, "kept pure hit", src, kept)
	info = kept

	// A pure hit across a renumbering: delete the lowest-indexed x-tuple
	// wholly below the prefix that some prefix x-tuple's index exceeds.
	highest := make(map[int]int) // group -> its highest rank position
	top := 0                     // highest group index in the prefix
	i := 0
	for _, g := range db.Ranked(0) {
		if _, ok := highest[g]; !ok {
			highest[g] = i
		}
		if i < info.Processed {
			top = max(top, g)
		}
		i++
	}
	victim := -1
	for g := 0; g < top && victim < 0; g++ {
		if highest[g] >= info.Processed {
			victim = g
		}
	}
	if victim < 0 {
		t.Fatal("no x-tuple below the prefix is numbered under a prefix x-tuple")
	}
	if err := db.DeleteXTuple(victim); err != nil {
		t.Fatal(err)
	}
	moved := pureHit("delete")
	if moved.Kept() {
		t.Fatal("delete renumbering prefix x-tuples: the pure hit kept every slot")
	}
	checkPointReads(t, "moved pure hit", src, moved)

	// A prefix that reaches the nulls: every alternative is real with
	// probability 0.1, so each null outranks its group's real alternative
	// in rank probability and Lemma 2 stops only inside the nulls.
	nulls := uncertain.New()
	for g := 0; g < 6; g++ {
		if err := nulls.AddXTuple(fmt.Sprintf("N%d", g), uncertain.Tuple{ID: fmt.Sprintf("n%d", g), Attrs: []float64{float64(g)}, Prob: 0.1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := nulls.Build(uncertain.ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	nsrc := &counting{db: nulls}
	ninfo, err := topkq.RankProbabilities(nsrc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if real := nulls.NumRealTuples(); ninfo.Processed <= real {
		t.Fatalf("prefix of %d positions holds no null (%d real alternatives)", ninfo.Processed, real)
	}
	if best := ninfo.Rho(nulls.NumRealTuples(), 1); best <= ninfo.Rho(0, 1) {
		t.Fatalf("the first null's rank-1 probability %v does not beat the top real's %v", best, ninfo.Rho(0, 1))
	}
	checkPointReads(t, "prefix with nulls", nsrc, ninfo)
}
