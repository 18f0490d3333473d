package topkq

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/probdb/topkclean/internal/testdb"
	"github.com/probdb/topkclean/internal/uncertain"
)

// checkCells requires UKRanks, which merges the scan's per-block cells,
// to answer exactly what ukRanksReference's argmax over the dense Rho
// table answers.
func checkCells(t *testing.T, stage string, src Source, info *RankInfo) {
	t.Helper()
	got, err := UKRanks(src, info)
	if err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
	if want := ukRanksReference(src, info); !slices.Equal(got, want) {
		t.Fatalf("%s: U-kRanks %s, dense argmax %s", stage, FormatRanked(got), FormatRanked(want))
	}
}

// resumeSince resumes info on db from the watermark of the mutations
// since version v.
func resumeSince(t *testing.T, stage string, db *uncertain.Database, info *RankInfo, v uint64) *RankInfo {
	t.Helper()
	wm, ok := db.DirtySince(v)
	if !ok {
		t.Fatalf("%s: DirtySince(%d) not answerable", stage, v)
	}
	out, err := Resume(db, info, wm)
	if err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
	return out
}

// TestUKRanksCellsMatchDense pins the U-kRanks cells against the dense
// table Rho rebuilds: over a fresh scan, a checkpoint resume, a resume
// from the exhaustion checkpoint (whose block the prior folded only in
// part), a kept and a moved pure hit, a prefix whose nulls hold the best
// rank probabilities, and naive infos, the winners picked from the cells
// are the dense argmax's, bit for bit.
func TestUKRanksCellsMatchDense(t *testing.T) {
	const k = 20
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := resumeTestDB(t, rng, 400)
		info, err := RankProbabilities(db, k)
		if err != nil {
			t.Fatal(err)
		}
		stage := fmt.Sprintf("seed %d", seed)
		if info.Processed < 3*checkpointEvery || info.Processed == info.N {
			t.Fatalf("%s: prefix of %d of %d positions; the test needs several blocks and an early stop", stage, info.Processed, info.N)
		}
		checkCells(t, stage+" fresh", db, info)

		// A checkpoint resume: reweight the x-tuple at the middle of the
		// prefix.
		v := db.Version()
		l := db.AtRank(info.Processed / 2).Group
		probs := make([]float64, len(db.GroupAt(l).RealTuples()))
		for i := range probs {
			probs[i] = 0.05 + rng.Float64()*(0.9/float64(len(probs)))
		}
		if err := db.Reweight(l, probs); err != nil {
			t.Fatal(err)
		}
		resumed := resumeSince(t, stage+" reweight", db, info, v)
		checkCells(t, stage+" checkpoint resume", db, resumed)

		// A kept pure hit: an x-tuple appended below the prefix.
		v = db.Version()
		if err := db.InsertXTuple("low", uncertain.Tuple{ID: "low.0", Attrs: []float64{-1}, Prob: 0.5}); err != nil {
			t.Fatal(err)
		}
		kept := resumeSince(t, stage+" insert", db, resumed, v)
		if !kept.Kept() || kept.Processed != resumed.Processed {
			t.Fatalf("%s: insert below the prefix did not keep the pure hit", stage)
		}
		checkCells(t, stage+" kept pure hit", db, kept)

		// A moved pure hit: delete the lowest-indexed x-tuple wholly below
		// the prefix that some prefix x-tuple's index exceeds.
		highest := make(map[int]int) // group -> its highest rank position
		top, i := 0, 0
		for _, g := range db.Ranked(0) {
			if _, ok := highest[g]; !ok {
				highest[g] = i
			}
			if i < kept.Processed {
				top = max(top, g)
			}
			i++
		}
		victim := -1
		for g := 0; g < top && victim < 0; g++ {
			if highest[g] >= kept.Processed {
				victim = g
			}
		}
		if victim < 0 {
			t.Fatalf("%s: no x-tuple below the prefix is numbered under a prefix x-tuple", stage)
		}
		v = db.Version()
		if err := db.DeleteXTuple(victim); err != nil {
			t.Fatal(err)
		}
		moved := resumeSince(t, stage+" delete", db, kept, v)
		if moved.Kept() || moved.Processed != kept.Processed {
			t.Fatalf("%s: a renumbering delete below the prefix did not move the pure hit", stage)
		}
		checkCells(t, stage+" moved pure hit", db, moved)
	}

	// The exhaustion checkpoint: every x-tuple has full mass and k = m, so
	// the scan reaches the end, whose position is not a multiple of the
	// block size; an x-tuple inserted below every alternative resumes
	// there and folds into the prior's partly folded block.
	exhausted := uncertain.New()
	for g := 0; g < 37; g++ {
		n := 1 + g%4
		ts := make([]uncertain.Tuple, n)
		for i := range ts {
			ts[i] = uncertain.Tuple{ID: fmt.Sprintf("e%d.%d", g, i), Attrs: []float64{float64((g*37 + i*11) % 101)}, Prob: 1 / float64(n)}
		}
		if err := exhausted.AddXTuple(fmt.Sprintf("E%d", g), ts...); err != nil {
			t.Fatal(err)
		}
	}
	if err := exhausted.Build(uncertain.ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	prior, err := RankProbabilities(exhausted, 37)
	if err != nil {
		t.Fatal(err)
	}
	if n := exhausted.NumTuples(); prior.Processed != n || n%checkpointEvery == 0 {
		t.Fatalf("exhausted fixture: %d of %d positions processed; want all, not a multiple of %d", prior.Processed, n, checkpointEvery)
	}
	checkCells(t, "exhausted fresh", exhausted, prior)
	v := exhausted.Version()
	if err := exhausted.InsertXTuple("bottom", uncertain.Tuple{ID: "bottom.0", Attrs: []float64{-10}, Prob: 0.9}); err != nil {
		t.Fatal(err)
	}
	if wm, _ := exhausted.DirtySince(v); wm < prior.Processed {
		t.Fatalf("exhausted fixture: watermark %d is inside the prefix of %d", wm, prior.Processed)
	}
	checkCells(t, "exhaustion checkpoint resume", exhausted, resumeSince(t, "bottom insert", exhausted, prior, v))

	// A prefix that reaches the nulls: every alternative is real with
	// probability 0.1, so each null outranks its group's real alternative
	// in rank probability.
	nulls := uncertain.New()
	for g := 0; g < 6; g++ {
		if err := nulls.AddXTuple(fmt.Sprintf("N%d", g), uncertain.Tuple{ID: fmt.Sprintf("n%d", g), Attrs: []float64{float64(g)}, Prob: 0.1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := nulls.Build(uncertain.ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	ninfo, err := RankProbabilities(nulls, 2)
	if err != nil {
		t.Fatal(err)
	}
	if real := nulls.NumRealTuples(); ninfo.Processed <= real || ninfo.Rho(real, 1) <= ninfo.Rho(0, 1) {
		t.Fatal("prefix with nulls: the first null's rank-1 probability does not beat the top real's; the case needs it to")
	}
	checkCells(t, "prefix with nulls", nulls, ninfo)

	// Naive infos derive their cells from their dense rows.
	for _, c := range []struct {
		name string
		db   *uncertain.Database
	}{{"naive UDB1", testdb.UDB1()}, {"naive nulls", nulls}} {
		naive, err := NaiveRankProbabilities(c.db, 2)
		if err != nil {
			t.Fatal(err)
		}
		checkCells(t, c.name, c.db, naive)
	}
}
