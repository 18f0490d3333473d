package quality

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
	"testing"

	"github.com/probdb/topkclean/internal/numeric"
	"github.com/probdb/topkclean/internal/topkq"
	"github.com/probdb/topkclean/internal/uncertain"
)

// TestTPFromResumedInfoMatchesFresh: the engine re-derives the TP quality
// evaluation from a resumed rank info after every mutation; since Resume
// is bit-identical to a fresh pass, the evaluation — score, per-tuple
// weights, per-x-tuple gains — must be bit-identical too. This pins the
// quality layer's half of the incremental revalidation contract.
func TestTPFromResumedInfoMatchesFresh(t *testing.T) {
	const k = 5
	rng := rand.New(rand.NewSource(11))
	db := uncertain.New()
	for g := 0; g < 50; g++ {
		n := 1 + rng.Intn(3)
		target := 1.0
		if g%2 == 0 {
			target = 0.4 + 0.5*rng.Float64()
		}
		weights := make([]float64, n)
		var sum float64
		for i := range weights {
			weights[i] = 0.1 + rng.Float64()
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

	prior, err := topkq.TopKProbabilities(db, k)
	if err != nil {
		t.Fatal(err)
	}
	version := db.Version()
	for step := 0; step < 30; step++ {
		score := rng.Float64() * 110 // above, inside, and below the prefix
		name := fmt.Sprintf("S%d", step)
		if err := db.InsertXTuple(name,
			uncertain.Tuple{ID: name + ".a", Attrs: []float64{score}, Prob: 0.3 + 0.6*rng.Float64()}); err != nil {
			t.Fatal(err)
		}
		wm, ok := db.DirtySince(version)
		if !ok {
			t.Fatalf("step %d: DirtySince unanswerable", step)
		}
		version = db.Version()
		resumed, err := topkq.Resume(db, prior, wm)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		evResumed, err := TPFromInfo(db, resumed)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		evFresh, err := TP(db, k)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if evResumed.S != evFresh.S {
			t.Fatalf("step %d: S = %v from resumed info, %v fresh", step, evResumed.S, evFresh.S)
		}
		if len(evResumed.Omega) != len(evFresh.Omega) {
			t.Fatalf("step %d: len(Omega) = %d, fresh %d", step, len(evResumed.Omega), len(evFresh.Omega))
		}
		for i := range evResumed.Omega {
			if evResumed.Omega[i] != evFresh.Omega[i] {
				t.Fatalf("step %d: Omega[%d] = %v, fresh %v", step, i, evResumed.Omega[i], evFresh.Omega[i])
			}
		}
		if err := sameGainBits(evResumed.Gains(), evFresh.Gains()); err != nil {
			t.Fatalf("step %d: resumed vs fresh gains: %v", step, err)
		}
		prior = resumed
	}
}

// sameGainBits compares two sparse gain vectors entry by entry, values by
// their bit patterns.
func sameGainBits(a, b Gains) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d entries vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Group != b[i].Group || math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return fmt.Errorf("entry %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return nil
}

// renumbered is a Source over db whose group indices pair-swap db's own
// (0↔1, 2↔3, ...), so a source's group index differs from the x-tuple's
// Tuple.Group, as in the shard merge.
type renumbered struct{ db *uncertain.Database }

func (s renumbered) idx(g int) int {
	if h := g ^ 1; h < s.db.NumGroups() {
		return h
	}
	return g
}

func (s renumbered) NumTuples() int { return s.db.NumTuples() }

func (s renumbered) NumGroups() int { return s.db.NumGroups() }

func (s renumbered) GroupAt(g int) *uncertain.XTuple { return s.db.GroupAt(s.idx(g)) }

func (s renumbered) AtRank(pos int) *uncertain.Tuple { return s.db.AtRank(pos) }

func (s renumbered) Ranked(pos int) iter.Seq2[*uncertain.Tuple, int] {
	return func(yield func(*uncertain.Tuple, int) bool) {
		for t, g := range s.db.Ranked(pos) {
			if !yield(t, s.idx(g)) {
				return
			}
		}
	}
}

// tpWalk is the TP pass that walks the source's processed prefix instead
// of reading the positions the scan recorded, and keys its cells by the
// source's group index instead of the scan slot: the reference the
// walk-free, slot-keyed pass must match.
func tpWalk(src topkq.Source, info *topkq.RankInfo) *Evaluation {
	ev := &Evaluation{Omega: make([]float64, info.Processed), Info: info, groups: src.NumGroups()}
	cells := make([]tpCell, src.NumGroups())
	var s numeric.Kahan
	i := 0
	for t, l := range src.Ranked(0) {
		if i == info.Processed {
			break
		}
		c := &cells[l]
		c.e += t.Prob
		if pi := info.P(i); pi != 0 {
			w := omega(t.Prob, c.e)
			ev.Omega[i] = w
			c.g += w * pi
			s.Add(w * pi)
		}
		i++
	}
	for l, c := range cells {
		if c.g != 0 {
			ev.gains = append(ev.gains, Gain{Group: l, Value: c.g})
		}
	}
	ev.S = min(s.Sum(), 0)
	return ev
}

// TestTPFromScanMatchesWalk pins the walk-free TP pass: on every info a
// scan returns, fresh or resumed, over the database and over a
// renumbering source, TPFromInfo reads the positions the scan recorded
// and must give the bits of a pass that walks the source. A pure-hit
// resume after a delete below the prefix finds the slots of renumbered
// x-tuples away from their recorded indices and re-resolves them; the
// test needs such moved pure hits as well as resumed scans.
func TestTPFromScanMatchesWalk(t *testing.T) {
	const k = 5
	rng := rand.New(rand.NewSource(12))
	db := uncertain.New()
	for g := 0; g < 80; g++ {
		// Every other x-tuple is certain, so Lemma 2 stops the scan early
		// and mutations below the prefix are pure hits.
		n := 1 + rng.Intn(3)
		mass := 1.0
		if g%2 == 1 {
			mass = 0.2 + 0.7*rng.Float64()
		}
		ts := make([]uncertain.Tuple, n)
		for i := range ts {
			ts[i] = uncertain.Tuple{
				ID:    fmt.Sprintf("g%d.%d", g, i),
				Attrs: []float64{rng.Float64() * 100},
				Prob:  mass / float64(n),
			}
		}
		if err := db.AddXTuple(fmt.Sprintf("G%d", g), ts...); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Build(uncertain.ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	same := func(stage string, a, b *Evaluation) {
		t.Helper()
		if math.Float64bits(a.S) != math.Float64bits(b.S) {
			t.Fatalf("%s: S = %v, walk %v", stage, a.S, b.S)
		}
		if len(a.Omega) != len(b.Omega) {
			t.Fatalf("%s: len(Omega) = %d, walk %d", stage, len(a.Omega), len(b.Omega))
		}
		for i := range a.Omega {
			if math.Float64bits(a.Omega[i]) != math.Float64bits(b.Omega[i]) {
				t.Fatalf("%s: Omega[%d] = %v, walk %v", stage, i, a.Omega[i], b.Omega[i])
			}
		}
		if err := sameGainBits(a.Gains(), b.Gains()); err != nil {
			t.Fatalf("%s: gains vs walk: %v", stage, err)
		}
	}
	srcs := []topkq.Source{db, renumbered{db}}
	priors := make([]*topkq.RankInfo, len(srcs))
	for j, src := range srcs {
		info, err := topkq.TopKProbabilities(src, k)
		if err != nil {
			t.Fatal(err)
		}
		priors[j] = info
	}
	version := db.Version()
	scans, movedPureHits := 0, 0
	for step := 0; step < 60; step++ {
		switch op := rng.Intn(3); {
		case op == 0 || db.NumGroups() <= 2*k:
			name := fmt.Sprintf("S%d", step)
			if err := db.InsertXTuple(name,
				uncertain.Tuple{ID: name + ".a", Attrs: []float64{rng.Float64() * 110}, Prob: 0.3 + 0.6*rng.Float64()}); err != nil {
				t.Fatal(err)
			}
		case op == 1:
			if err := db.DeleteXTuple(rng.Intn(db.NumGroups())); err != nil {
				t.Fatal(err)
			}
		default:
			g := rng.Intn(db.NumGroups())
			probs := make([]float64, len(db.GroupAt(g).RealTuples()))
			for i := range probs {
				probs[i] = (0.2 + 0.7*rng.Float64()) / float64(len(probs))
			}
			if err := db.Reweight(g, probs); err != nil {
				t.Fatal(err)
			}
		}
		wm, ok := db.DirtySince(version)
		if !ok {
			t.Fatalf("step %d: DirtySince unanswerable", step)
		}
		version = db.Version()
		for j, src := range srcs {
			stage := fmt.Sprintf("step %d, source %d", step, j)
			resumed, err := topkq.Resume(src, priors[j], wm)
			if err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			switch prior := priors[j]; {
			case wm < prior.Processed || prior.Processed == prior.N:
				scans++
			case !resumed.Kept():
				movedPureHits++
			}
			ev, err := TPFromInfo(src, resumed)
			if err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			same(stage, ev, tpWalk(src, resumed))
			fresh, err := topkq.TopKProbabilities(src, k)
			if err != nil {
				t.Fatal(err)
			}
			evFresh, err := TPFromInfo(src, fresh)
			if err != nil {
				t.Fatal(err)
			}
			same(stage+" (fresh)", evFresh, ev)
			priors[j] = resumed
		}
	}
	if scans == 0 || movedPureHits == 0 {
		t.Fatalf("%d resumed scans and %d pure hits that moved a slot; the test needs both", scans, movedPureHits)
	}
}
