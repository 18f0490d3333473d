package topkq

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"math/rand"
	"testing"

	"github.com/probdb/topkclean/internal/testdb"
	"github.com/probdb/topkclean/internal/uncertain"
)

// assertBitIdentical fails unless got and want agree exactly — not within
// a tolerance — on every field Resume promises to reproduce: the processed
// prefix length, the rebuild count, and every probability bit.
func assertBitIdentical(t *testing.T, stage string, got, want *RankInfo) {
	t.Helper()
	if got.K != want.K || got.N != want.N {
		t.Fatalf("%s: (K, N) = (%d, %d), fresh (%d, %d)", stage, got.K, got.N, want.K, want.N)
	}
	if got.Processed != want.Processed {
		t.Fatalf("%s: Processed = %d, fresh %d", stage, got.Processed, want.Processed)
	}
	if got.Rebuilds != want.Rebuilds {
		t.Fatalf("%s: Rebuilds = %d, fresh %d", stage, got.Rebuilds, want.Rebuilds)
	}
	if len(got.TopK) != len(want.TopK) {
		t.Fatalf("%s: len(TopK) = %d, fresh %d", stage, len(got.TopK), len(want.TopK))
	}
	for i := range got.TopK {
		if got.TopK[i] != want.TopK[i] {
			t.Fatalf("%s: TopK[%d] = %v, fresh %v", stage, i, got.TopK[i], want.TopK[i])
		}
	}
	if got.HasRho() != want.HasRho() {
		t.Fatalf("%s: HasRho = %v, fresh %v", stage, got.HasRho(), want.HasRho())
	}
	if got.HasRho() {
		if len(got.rho) != len(want.rho) {
			t.Fatalf("%s: rho blocks = %d, fresh %d", stage, len(got.rho), len(want.rho))
		}
		for i := range got.TopK {
			for h := 1; h <= got.K; h++ {
				if got.Rho(i, h) != want.Rho(i, h) {
					t.Fatalf("%s: rho[%d][%d] = %v, fresh %v", stage, i, h, got.Rho(i, h), want.Rho(i, h))
				}
			}
		}
	}
}

// resumeTestDB builds a database whose scan early-terminates well before
// the end: about half the x-tuples have total mass 1 (no null), so the
// top-ranked full-mass groups fill fullGroups quickly, while the rest
// carry nulls. Scores are spread so random mutations land above, inside,
// and below the processed prefix.
func resumeTestDB(t *testing.T, rng *rand.Rand, groups int) *uncertain.Database {
	t.Helper()
	db := uncertain.New()
	for g := 0; g < groups; g++ {
		n := 1 + rng.Intn(4)
		target := 1.0
		if rng.Intn(2) == 0 {
			target = 0.3 + 0.6*rng.Float64()
		}
		weights := make([]float64, n)
		var sum float64
		for i := range weights {
			weights[i] = 0.05 + rng.Float64()
			sum += weights[i]
		}
		ts := make([]uncertain.Tuple, n)
		for i := range ts {
			ts[i] = uncertain.Tuple{
				ID:    fmt.Sprintf("g%d.%d", g, i),
				Attrs: []float64{rng.Float64() * 100},
				Prob:  weights[i] / sum * target,
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

// mutator is the mutation surface shared by *uncertain.Database (one
// commit per call) and *uncertain.Batch (one merged commit); the property
// test drives both so the two watermark paths are exercised.
type mutator interface {
	InsertXTuple(name string, tuples ...uncertain.Tuple) error
	DeleteXTuple(l int) error
	Reweight(l int, probs []float64) error
	Collapse(l, choice int) error
}

// mutateRandomly applies one random mutation step — a single insert,
// delete, reweight, or collapse, or a batch of several — and returns a
// label for failure messages.
func mutateRandomly(t *testing.T, rng *rand.Rand, db *uncertain.Database, step int, nextID *int) string {
	t.Helper()
	one := func(mu mutator) string {
		m := db.NumGroups()
		switch rng.Intn(4) {
		case 0:
			n := 1 + rng.Intn(3)
			ts := make([]uncertain.Tuple, n)
			for i := range ts {
				ts[i] = uncertain.Tuple{
					ID:    fmt.Sprintf("s%d.%d", *nextID, i),
					Attrs: []float64{rng.Float64() * 100},
					Prob:  0.05 + rng.Float64()*(0.9/float64(n)),
				}
			}
			*nextID++
			if err := mu.InsertXTuple(fmt.Sprintf("S%d", *nextID), ts...); err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
			return "insert"
		case 1:
			if m <= 12 {
				return "skip"
			}
			if err := mu.DeleteXTuple(rng.Intn(m)); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			return "delete"
		case 2:
			l := rng.Intn(m)
			real := db.Groups()[l].RealTuples()
			if len(real) == 0 {
				return "skip"
			}
			probs := make([]float64, len(real))
			for i := range probs {
				probs[i] = 0.05 + rng.Float64()*(0.9/float64(len(probs)))
			}
			if err := mu.Reweight(l, probs); err != nil {
				t.Fatalf("step %d reweight: %v", step, err)
			}
			return "reweight"
		default:
			l := rng.Intn(m)
			g := db.Groups()[l]
			if err := mu.Collapse(l, rng.Intn(len(g.Tuples))); err != nil {
				t.Fatalf("step %d collapse: %v", step, err)
			}
			return "collapse"
		}
	}
	if rng.Intn(3) == 0 {
		// Batched: several mutations, one version bump, one merged watermark.
		label := "batch["
		err := db.Batch(func(b *uncertain.Batch) error {
			for j := 1 + rng.Intn(3); j > 0; j-- {
				label += one(b) + " "
			}
			return nil
		})
		if err != nil {
			t.Fatalf("step %d batch: %v", step, err)
		}
		return label + "]"
	}
	return "single:" + one(db)
}

// TestResumeBitIdenticalUnderMutations is the acceptance property test:
// across >= 100 mixed mutation steps (insert/delete/reweight/collapse,
// single and batched), Resume from the previous version's info at the
// DirtySince watermark must be bit-identical — Processed, Rebuilds, every
// top-k probability, and every rho row — to a from-scratch pass, for both
// the rho-retaining and the top-k-only flavors. The resumed infos are
// chained (each step resumes from the previous resume), so drift would
// compound and be caught.
func TestResumeBitIdenticalUnderMutations(t *testing.T) {
	const k = 7
	rng := rand.New(rand.NewSource(20260730))
	db := resumeTestDB(t, rng, 60)

	priorFull, err := RankProbabilities(db, k)
	if err != nil {
		t.Fatal(err)
	}
	priorLight, err := TopKProbabilities(db, k)
	if err != nil {
		t.Fatal(err)
	}
	version := db.Version()
	nextID := 1000
	pureHits := 0
	for step := 0; step < 120; step++ {
		label := mutateRandomly(t, rng, db, step, &nextID)
		wm, ok := db.DirtySince(version)
		if !ok {
			t.Fatalf("step %d (%s): DirtySince(%d) not answerable at version %d",
				step, label, version, db.Version())
		}
		version = db.Version()
		stage := fmt.Sprintf("step %d (%s, watermark %d)", step, label, wm)

		freshFull, err := RankProbabilities(db, k)
		if err != nil {
			t.Fatalf("%s: fresh full: %v", stage, err)
		}
		resumedFull, err := Resume(db, priorFull, wm)
		if err != nil {
			t.Fatalf("%s: resume full: %v", stage, err)
		}
		assertBitIdentical(t, stage+" full", resumedFull, freshFull)

		freshLight, err := TopKProbabilities(db, k)
		if err != nil {
			t.Fatalf("%s: fresh light: %v", stage, err)
		}
		resumedLight, err := Resume(db, priorLight, wm)
		if err != nil {
			t.Fatalf("%s: resume light: %v", stage, err)
		}
		assertBitIdentical(t, stage+" light", resumedLight, freshLight)

		if wm >= resumedFull.Processed {
			pureHits++
		}
		priorFull, priorLight = resumedFull, resumedLight
	}
	// The score distribution guarantees a healthy mix; if every step
	// replayed the scan the pure-hit fast path was never exercised.
	if pureHits == 0 {
		t.Error("no mutation landed below the early-termination point; pure-hit path untested")
	}
	if pureHits == 120 {
		t.Error("every mutation landed below the early-termination point; replay path untested")
	}
}

// TestResumePureCacheHitSharesPrefix pins the zero-copy property: when the
// watermark is at or beyond an early-terminated prior's Processed, Resume
// must return prior's own arrays (re-badged for the new version), not a
// recomputation.
func TestResumePureCacheHitSharesPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := resumeTestDB(t, rng, 80)
	const k = 5
	prior, err := RankProbabilities(db, k)
	if err != nil {
		t.Fatal(err)
	}
	if prior.Processed >= db.NumTuples() {
		t.Fatalf("fixture did not early-terminate (Processed = %d of %d)", prior.Processed, db.NumTuples())
	}
	version := db.Version()
	// A hopeless x-tuple: scores below everything, lands at the bottom.
	if err := db.InsertXTuple("bottom",
		uncertain.Tuple{ID: "b.0", Attrs: []float64{-50}, Prob: 0.5},
		uncertain.Tuple{ID: "b.1", Attrs: []float64{-60}, Prob: 0.3}); err != nil {
		t.Fatal(err)
	}
	wm, ok := db.DirtySince(version)
	if !ok {
		t.Fatal("DirtySince must answer for a one-step-old version")
	}
	if wm < prior.Processed {
		t.Fatalf("bottom insert got watermark %d < Processed %d", wm, prior.Processed)
	}
	resumed, err := Resume(db, prior, wm)
	if err != nil {
		t.Fatal(err)
	}
	if &resumed.TopK[0] != &prior.TopK[0] {
		t.Error("pure cache hit must share the prior TopK array, not copy or recompute")
	}
	if resumed.N != db.NumTuples() {
		t.Errorf("resumed N = %d, want %d", resumed.N, db.NumTuples())
	}
	fresh, err := RankProbabilities(db, k)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "pure hit", resumed, fresh)
}

// TestResumeAppendAfterExhaustedScan: a prior whose scan consumed the
// whole array has no p = 0 guarantee recorded beyond the old end, so an
// append below it cannot take the pure-hit path; Resume must instead pick
// up the final checkpoint and agree with a fresh pass (which, with every
// group at full mass by the old end, terminates right at the appended
// tuples).
func TestResumeAppendAfterExhaustedScan(t *testing.T) {
	db := testdb.UDB1()
	const k = 4 // k = m: the scan cannot early-terminate
	prior, err := RankProbabilities(db, k)
	if err != nil {
		t.Fatal(err)
	}
	if prior.Processed != db.NumTuples() {
		t.Fatalf("fixture unexpectedly early-terminated at %d", prior.Processed)
	}
	version := db.Version()
	if err := db.InsertXTuple("S5", uncertain.Tuple{ID: "n0", Attrs: []float64{1}, Prob: 0.9}); err != nil {
		t.Fatal(err)
	}
	wm, ok := db.DirtySince(version)
	if !ok {
		t.Fatal("DirtySince must answer")
	}
	if wm < prior.Processed {
		t.Fatalf("bottom insert got watermark %d < old end %d", wm, prior.Processed)
	}
	resumed, err := Resume(db, prior, wm)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := RankProbabilities(db, k)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "append after exhausted scan", resumed, fresh)
	for i := prior.Processed; i < db.NumTuples(); i++ {
		if resumed.P(i) != 0 {
			t.Fatalf("appended tuple at position %d has p = %v, want 0", i, resumed.P(i))
		}
	}
}

func TestResumeValidation(t *testing.T) {
	db := testdb.UDB1()
	info, err := TopKProbabilities(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(db, nil, 0); !errors.Is(err, ErrCannotResume) {
		t.Errorf("nil prior: err = %v, want ErrCannotResume", err)
	}
	naive, err := NaiveRankProbabilities(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(db, naive, 0); !errors.Is(err, ErrCannotResume) {
		t.Errorf("naive prior: err = %v, want ErrCannotResume", err)
	}
	unbuilt := uncertain.New()
	if _, err := Resume(unbuilt, info, 0); !errors.Is(err, uncertain.ErrNotBuilt) {
		t.Errorf("unbuilt db: err = %v, want ErrNotBuilt", err)
	}
	// Deleting below k groups makes k invalid for the new version.
	big, err := RankProbabilities(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteXTuple(0); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(db, big, 0); !errors.Is(err, ErrKTooLarge) {
		t.Errorf("k > m after delete: err = %v, want ErrKTooLarge", err)
	}
	// A full replay from watermark 0 is still exact.
	fresh, err := TopKProbabilities(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(db, info, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "watermark 0", resumed, fresh)
}

// countingSource counts the GroupAt calls made through it.
type countingSource struct {
	Source
	groupAt int
}

func (c *countingSource) GroupAt(g int) *uncertain.XTuple {
	c.groupAt++
	return c.Source.GroupAt(g)
}

// TestRestoreAfterDeleteLocatesInLinearCalls pins the cost of re-resolving
// a checkpoint's slots after a delete renumbered the x-tuples above it:
// every survivor moved down one index, so each slot is found within two
// GroupAt probes of its recorded index, and a resume makes O(slots) calls
// in all rather than a linear search per slot. The deletes are chained,
// each resume seeding the next: a resume records the slots' current
// x-tuples, so the probe count does not grow with the delete history.
func TestRestoreAfterDeleteLocatesInLinearCalls(t *testing.T) {
	const k = 10
	db := headTailDB(t, 300, 3000)
	prior, err := TopKProbabilities(db, k)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		version := db.Version()
		// Group 1 is a head x-tuple whose alternatives all lie inside the
		// processed prefix, below its first few checkpoints.
		if err := db.DeleteXTuple(1); err != nil {
			t.Fatal(err)
		}
		wm, ok := db.DirtySince(version)
		if !ok {
			t.Fatal("DirtySince must answer for a one-step-old version")
		}
		if wm < 2*checkpointEvery || wm >= prior.Processed {
			t.Fatalf("step %d: delete watermark %d, want inside the prefix [%d, %d)", step, wm, 2*checkpointEvery, prior.Processed)
		}
		src := &countingSource{Source: db}
		resumed, err := Resume(src, prior, wm)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := TopKProbabilities(db, k)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, fmt.Sprintf("step %d", step), resumed, fresh)
		// Restore: at most two probes per checkpointed slot; the replay:
		// one call per slot it activates.
		if limit := 2 * len(resumed.ids); src.groupAt > limit {
			t.Fatalf("step %d: resume made %d GroupAt calls for %d slots, want <= %d", step, src.groupAt, len(resumed.ids), limit)
		}
		prior = resumed
	}
}

// swapped numbers a database's x-tuples with adjacent pairs exchanged
// (group g becomes g^1; the last group of an odd count keeps its index),
// so its group indices differ from every x-tuple's own Tuple.Group, as
// the shard merge's global indices differ from its shard-local ones.
type swapped struct{ db *uncertain.Database }

func (s swapped) idx(g int) int {
	if h := g ^ 1; h < s.db.NumGroups() {
		return h
	}
	return g
}

func (s swapped) NumTuples() int { return s.db.NumTuples() }

func (s swapped) NumGroups() int { return s.db.NumGroups() }

func (s swapped) GroupAt(g int) *uncertain.XTuple { return s.db.GroupAt(s.idx(g)) }

func (s swapped) AtRank(pos int) *uncertain.Tuple { return s.db.AtRank(pos) }

func (s swapped) Ranked(pos int) iter.Seq2[*uncertain.Tuple, int] {
	return func(yield func(*uncertain.Tuple, int) bool) {
		for t, g := range s.db.Ranked(pos) {
			if !yield(t, s.idx(g)) {
				return
			}
		}
	}
}

// TestRestoreThroughRenumberingSourceLocatesInLinearCalls pins the slot
// index hint: through a source whose group indices are not the x-tuples'
// own Tuple.Group, restoring a checkpoint probes each slot's recorded
// source index first, so a resume makes O(slots) GroupAt calls — not a
// search per slot that starts from the wrong index — and stays
// bit-identical to a fresh scan of the same source, rank probabilities
// included.
func TestRestoreThroughRenumberingSourceLocatesInLinearCalls(t *testing.T) {
	const k = 10
	db := headTailDB(t, 300, 3000)
	src := swapped{db}
	rng := rand.New(rand.NewSource(23))
	for _, full := range []bool{false, true} {
		scan := TopKProbabilities
		if full {
			scan = RankProbabilities
		}
		prior, err := scan(src, k)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 3; step++ {
			version := db.Version()
			// Lower the probability of one alternative at a rank position
			// past the first checkpoints but inside the processed prefix.
			at := db.AtRank(2*checkpointEvery + rng.Intn(prior.Processed-2*checkpointEvery))
			var probs []float64
			for _, rt := range db.GroupAt(at.Group).RealTuples() {
				p := rt.Prob
				if rt == at {
					p *= 0.9
				}
				probs = append(probs, p)
			}
			if err := db.Reweight(at.Group, probs); err != nil {
				t.Fatal(err)
			}
			wm, ok := db.DirtySince(version)
			if !ok || wm < 2*checkpointEvery || wm >= prior.Processed {
				t.Fatalf("full=%v step %d: watermark %d (ok %v), want inside [%d, %d)", full, step, wm, ok, 2*checkpointEvery, prior.Processed)
			}
			counted := &countingSource{Source: src}
			resumed, err := Resume(counted, prior, wm)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := scan(src, k)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, fmt.Sprintf("full=%v step %d", full, step), resumed, fresh)
			if limit := 2 * len(resumed.ids); counted.groupAt > limit {
				t.Fatalf("full=%v step %d: resume made %d GroupAt calls for %d slots, want <= %d",
					full, step, counted.groupAt, len(resumed.ids), limit)
			}
			prior = resumed
		}
	}
}

// TestResumeSiblingsAndChainsBitIdentical guards the prefix data a resumed
// info shares with its prior — the rho blocks below the splice point, the
// checkpoints — against aliasing: two resumes from one prior over
// differently mutated branches, then three chained resumes, must each stay
// bit-identical to a fresh pass, and so must the prior and the first
// sibling after everything later was computed. The exhausted fixture
// resumes from the checkpoint at n, which is not a multiple of the rho
// block size.
func TestResumeSiblingsAndChainsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	early := resumeTestDB(t, rng, 400)
	// Every x-tuple has full mass and k = m, so the scan never stops early.
	exhausted := uncertain.New()
	for g := 0; g < 37; g++ {
		n := 1 + g%4
		ts := make([]uncertain.Tuple, n)
		for i := range ts {
			ts[i] = uncertain.Tuple{ID: fmt.Sprintf("e%d.%d", g, i), Attrs: []float64{rng.Float64() * 100}, Prob: 1 / float64(n)}
		}
		if err := exhausted.AddXTuple(fmt.Sprintf("E%d", g), ts...); err != nil {
			t.Fatal(err)
		}
	}
	if err := exhausted.Build(uncertain.ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	if n := exhausted.NumTuples(); n%checkpointEvery == 0 || n < checkpointEvery {
		t.Fatalf("exhausted fixture has %d tuples, want more than one block and not a multiple of %d", n, checkpointEvery)
	}

	// bottom inserts an x-tuple below every existing alternative.
	bottom := func(db *uncertain.Database, id string, score, p float64) {
		t.Helper()
		if err := db.InsertXTuple(id, uncertain.Tuple{ID: id, Attrs: []float64{score}, Prob: p}); err != nil {
			t.Fatal(err)
		}
	}
	// reweightAt reweights the x-tuple of the alternative at rank position pos.
	reweightAt := func(db *uncertain.Database, pos int) {
		t.Helper()
		l := db.Sorted()[pos].Group
		probs := make([]float64, len(db.Groups()[l].RealTuples()))
		for i := range probs {
			probs[i] = 0.05 + rng.Float64()*(0.9/float64(len(probs)))
		}
		if err := db.Reweight(l, probs); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name  string
		db    *uncertain.Database
		k     int
		a, b  func(db *uncertain.Database, p int) // sibling mutations
		chain func(db *uncertain.Database, p, step int)
	}{
		{
			name:  "early-terminated",
			db:    early,
			k:     40,
			a:     func(db *uncertain.Database, p int) { reweightAt(db, p/3) },
			b:     func(db *uncertain.Database, p int) { reweightAt(db, 2*p/3) },
			chain: func(db *uncertain.Database, p, step int) { reweightAt(db, p*(3-step)/4) },
		},
		{
			name: "exhausted",
			db:   exhausted,
			k:    37,
			a:    func(db *uncertain.Database, _ int) { bottom(db, "a", -10, 0.9) },
			b:    func(db *uncertain.Database, _ int) { bottom(db, "b", -20, 0.4) },
			chain: func(db *uncertain.Database, _, step int) {
				bottom(db, fmt.Sprintf("c%d", step), -30-float64(step), 0.5)
			},
		},
	}
	for _, tc := range cases {
		for _, keepRho := range []bool{true, false} {
			pass := TopKProbabilities
			if keepRho {
				pass = RankProbabilities
			}
			name := fmt.Sprintf("%s/rho=%v", tc.name, keepRho)
			fresh := func(db *uncertain.Database) *RankInfo {
				t.Helper()
				info, err := pass(db, tc.k)
				if err != nil {
					t.Fatalf("%s: fresh: %v", name, err)
				}
				return info
			}
			resume := func(db *uncertain.Database, prior *RankInfo, since uint64) *RankInfo {
				t.Helper()
				wm, ok := db.DirtySince(since)
				if !ok {
					t.Fatalf("%s: DirtySince(%d) not answerable", name, since)
				}
				info, err := Resume(db, prior, wm)
				if err != nil {
					t.Fatalf("%s: resume: %v", name, err)
				}
				return info
			}
			prior := fresh(tc.db)
			priorWant := fresh(tc.db)
			if tc.name == "exhausted" && prior.Processed != tc.db.NumTuples() {
				t.Fatalf("%s: fixture stopped early at %d of %d", name, prior.Processed, tc.db.NumTuples())
			}
			if tc.name == "early-terminated" && prior.Processed < 4*checkpointEvery {
				t.Fatalf("%s: prefix of %d positions spans too few blocks", name, prior.Processed)
			}
			v := tc.db.Version()
			dbA, dbB := tc.db.Clone(), tc.db.Clone()
			tc.a(dbA, prior.Processed)
			tc.b(dbB, prior.Processed)
			sibA := resume(dbA, prior, v)
			wantA := fresh(dbA)
			sibB := resume(dbB, prior, v)
			assertBitIdentical(t, name+" sibling b", sibB, fresh(dbB))
			assertBitIdentical(t, name+" sibling a", sibA, wantA)

			cur := sibA
			for step := 0; step < 3; step++ {
				v := dbA.Version()
				tc.chain(dbA, cur.Processed, step)
				cur = resume(dbA, cur, v)
				assertBitIdentical(t, fmt.Sprintf("%s chain %d", name, step), cur, fresh(dbA))
			}
			assertBitIdentical(t, name+" sibling a after chain", sibA, wantA)
			assertBitIdentical(t, name+" prior after all", prior, priorWant)
		}
	}
}

// TestResumeFallsBackPastDeletedSlot drives the restore safety net: with a
// watermark past a deleted x-tuple's positions (a contract violation),
// every checkpoint whose slots include the deleted x-tuple fails to
// restore and Resume falls back to the latest one from before its first
// alternative, whose prefix the delete did not change, so the result is
// still exact. The fallen-back info must also seed a correct resume
// after the next mutation: a failed restore leaves nothing behind in its
// slot table.
func TestResumeFallsBackPastDeletedSlot(t *testing.T) {
	const k = 10
	db := headTailDB(t, 300, 400)
	prior, err := TopKProbabilities(db, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteXTuple(1); err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(db, prior, prior.Processed-1)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := TopKProbabilities(db, k)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "fallback past the deleted slot", resumed, fresh)

	// An insert just above the last processed position: the next resume
	// restores a late checkpoint, which reads the whole slot table.
	version := db.Version()
	score := db.AtRank(resumed.Processed-1).Score + 1e-6
	if err := db.InsertXTuple("late", uncertain.Tuple{ID: "late", Attrs: []float64{score}, Prob: 0.5}); err != nil {
		t.Fatal(err)
	}
	wm, ok := db.DirtySince(version)
	if !ok {
		t.Fatal("DirtySince must answer for a one-step-old version")
	}
	if wm < resumed.Processed-checkpointEvery {
		t.Fatalf("insert watermark %d, want within one interval of Processed %d", wm, resumed.Processed)
	}
	next, err := Resume(db, resumed, wm)
	if err != nil {
		t.Fatal(err)
	}
	if fresh, err = TopKProbabilities(db, k); err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "resume from the fallen-back info", next, fresh)
}

// TestResumeNamesPositionsLikeFresh pins what the passes after a scan read
// instead of the source: a resumed info — a replay, a pure hit that kept
// its slots, or one that re-resolved them after a renumbering delete —
// names every processed position's alternative (Alt) and records the
// null start exactly as a fresh scan of the new version does, through the
// database and through a source that numbers groups its own way. Large k
// pushes some prefixes into the nulls.
func TestResumeNamesPositionsLikeFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var nullPrefixes, moved int
	for trial := 0; trial < 12; trial++ {
		db := resumeTestDB(t, rng, 14+rng.Intn(20))
		k := []int{2, db.NumGroups() / 2, db.NumGroups() - 2}[trial%3]
		srcs := []Source{db, swapped{db}}
		priors := make([]*RankInfo, len(srcs))
		for j, src := range srcs {
			info, err := TopKProbabilities(src, k)
			if err != nil {
				t.Fatal(err)
			}
			priors[j] = info
		}
		nextID := 0
		for step := 0; step < 30; step++ {
			version := db.Version()
			what := mutateRandomly(t, rng, db, step, &nextID)
			wm, ok := db.DirtySince(version)
			if !ok {
				t.Fatalf("trial %d step %d: DirtySince unanswerable", trial, step)
			}
			for j, src := range srcs {
				stage := fmt.Sprintf("trial %d step %d (%s) source %d", trial, step, what, j)
				if k > src.NumGroups() {
					priors[j] = nil
					continue
				}
				fresh, err := TopKProbabilities(src, k)
				if err != nil {
					t.Fatal(err)
				}
				got := fresh
				if prior := priors[j]; prior != nil {
					if got, err = Resume(src, prior, wm); err != nil {
						t.Fatalf("%s: %v", stage, err)
					}
					if wm >= prior.Processed && prior.Processed < prior.N && !got.Kept() {
						moved++
					}
				}
				if got.nullStart != fresh.nullStart || got.Processed != fresh.Processed {
					t.Fatalf("%s: null start %d of %d positions, fresh %d of %d", stage, got.nullStart, got.Processed, fresh.nullStart, fresh.Processed)
				}
				if got.nullStart < got.Processed {
					nullPrefixes++
				}
				for i := range got.Processed {
					ge, gg := got.Alt(i)
					fe, fg := fresh.Alt(i)
					if math.Float64bits(ge) != math.Float64bits(fe) || gg != fg {
						t.Fatalf("%s: position %d names (%v, %d), fresh (%v, %d)", stage, i, ge, gg, fe, fg)
					}
				}
				priors[j] = got
			}
		}
	}
	if nullPrefixes == 0 || moved == 0 {
		t.Fatalf("%d prefixes reached the nulls and %d pure hits moved a slot; the test needs both", nullPrefixes, moved)
	}

	// A replay that meets only nulls: 70 x-tuples of one real alternative
	// each, the lowest six deleted, so the resume restores the checkpoint
	// at 64 and every position it replays is a null. The null start must
	// come from the copied prefix.
	db := uncertain.New()
	for g := 0; g < 70; g++ {
		if err := db.AddXTuple(fmt.Sprintf("G%d", g), uncertain.Tuple{ID: fmt.Sprintf("g%d", g), Attrs: []float64{float64(100 - g)}, Prob: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Build(uncertain.ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	prior, err := TopKProbabilities(db, 40)
	if err != nil {
		t.Fatal(err)
	}
	version := db.Version()
	if err := db.Batch(func(b *uncertain.Batch) error {
		for range 6 {
			if err := b.DeleteXTuple(64); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	wm, _ := db.DirtySince(version)
	got, err := Resume(db, prior, wm)
	if err != nil {
		t.Fatal(err)
	}
	if wm != checkpointEvery || got.nullStart != checkpointEvery {
		t.Fatalf("watermark %d, null start %d; want both %d", wm, got.nullStart, checkpointEvery)
	}
}
