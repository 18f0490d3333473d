package topkq

import (
	"iter"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"github.com/probdb/topkclean/internal/numeric"
	"github.com/probdb/topkclean/internal/testdb"
	"github.com/probdb/topkclean/internal/uncertain"
)

func TestPTKPaperExample(t *testing.T) {
	// Paper, Section I: "If k = 2 and T = 0.4, then the answer of the PT-k
	// query is {t1, t2, t5}".
	db := testdb.UDB1()
	info, err := RankProbabilities(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	ans := PTK(db, info, 0.4)
	got := FormatScored(ans)
	if got != "{t1, t2, t5}" {
		t.Fatalf("PT-2(T=0.4) = %s, want {t1, t2, t5}", got)
	}
}

func TestPTKThresholdBoundary(t *testing.T) {
	db := testdb.UDB1()
	info, _ := RankProbabilities(db, 2)
	// p(t5) = 0.432: threshold exactly 0.432 keeps it ("not smaller than").
	ans := PTK(db, info, 0.432)
	found := false
	for _, a := range ans {
		if a.Tuple.ID == "t5" {
			found = true
		}
	}
	if !found {
		t.Fatal("PT-k must include tuples with p exactly equal to the threshold")
	}
	// Slightly above drops it.
	ans = PTK(db, info, 0.4320001)
	for _, a := range ans {
		if a.Tuple.ID == "t5" {
			t.Fatal("t5 should be dropped above its probability")
		}
	}
}

func TestPTKZeroThresholdReturnsAllNonzero(t *testing.T) {
	db := testdb.UDB1()
	info, _ := RankProbabilities(db, 2)
	ans := PTK(db, info, 0)
	// Threshold 0 admits every real tuple the scan reached (p >= 0),
	// excluding nulls.
	for _, a := range ans {
		if a.Tuple.Null {
			t.Fatal("PT-k answer contains a null tuple")
		}
	}
	if len(ans) < info.NonzeroCount() {
		t.Fatalf("PT-k(0) returned %d tuples, fewer than %d nonzero", len(ans), info.NonzeroCount())
	}
}

func TestPTKAnswersInRankOrder(t *testing.T) {
	db := testdb.UDB1()
	info, _ := RankProbabilities(db, 2)
	ans := PTK(db, info, 0.1)
	for i := 1; i < len(ans); i++ {
		if ans[i].Tuple.Index() <= ans[i-1].Tuple.Index() {
			t.Fatal("PT-k answers not in descending rank order")
		}
	}
}

func TestUKRanksOnUDB1(t *testing.T) {
	// Hand check rank-1: rho(1) values are the probabilities of being the
	// top tuple. t1: 0.4; t2: (1-.4)*.7 = 0.42; t5: .6*.3*.6=0.108;
	// t6: .6*.3*.4*1 = 0.072. So rank 1 -> t2.
	db := testdb.UDB1()
	info, err := RankProbabilities(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := UKRanks(db, info)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 2 {
		t.Fatalf("U-2Ranks returned %d entries, want 2", len(ans))
	}
	if ans[0].Tuple.ID != "t2" {
		t.Fatalf("rank 1 winner = %s (p=%v), want t2", ans[0].Tuple.ID, ans[0].Prob)
	}
	if !numeric.AlmostEqual(ans[0].Prob, 0.42, 1e-12, 1e-12) {
		t.Fatalf("rank 1 probability = %v, want 0.42", ans[0].Prob)
	}
	// Answers must agree with the naive ground truth winner probability.
	naive, _ := NaiveRankProbabilities(db, 2)
	for _, a := range ans {
		if !numeric.AlmostEqual(a.Prob, naive.Rho(a.Tuple.Index(), a.H), 1e-9, 1e-9) {
			t.Errorf("rank %d: prob %v disagrees with naive %v", a.H, a.Prob, naive.Rho(a.Tuple.Index(), a.H))
		}
	}
}

func TestUKRanksRequiresRho(t *testing.T) {
	db := testdb.UDB1()
	info, _ := TopKProbabilities(db, 2)
	if _, err := UKRanks(db, info); err == nil {
		t.Fatal("UKRanks must reject info without rho")
	}
}

func TestUKRanksMatchesNaiveOnRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 80; trial++ {
		db := testdb.Random(rng, testdb.RandomConfig{MaxGroups: 5, MaxPerGroup: 3, AllowNulls: true})
		k := 1 + rng.Intn(db.NumGroups())
		info, err := RankProbabilities(db, k)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := NaiveRankProbabilities(db, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := UKRanks(db, info)
		if err != nil {
			t.Fatal(err)
		}
		want, err := UKRanks(db, naive)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: answer lengths differ: %d vs %d", trial, len(got), len(want))
		}
		for i := range got {
			// Winners can differ only when probabilities tie to within fp noise.
			if got[i].Tuple != want[i].Tuple &&
				!numeric.AlmostEqual(got[i].Prob, want[i].Prob, 1e-9, 1e-9) {
				t.Fatalf("trial %d rank %d: %s (%v) vs %s (%v)", trial, got[i].H,
					got[i].Tuple.ID, got[i].Prob, want[i].Tuple.ID, want[i].Prob)
			}
		}
	}
}

func TestGlobalTopKOnUDB1(t *testing.T) {
	db := testdb.UDB1()
	info, _ := RankProbabilities(db, 2)
	ans := GlobalTopK(db, info)
	if len(ans) != 2 {
		t.Fatalf("Global-top2 returned %d tuples, want 2", len(ans))
	}
	// Top-2 probabilities: t2=0.7, t5=0.432, t1=0.4, t6=0.396.
	if ans[0].Tuple.ID != "t2" || ans[1].Tuple.ID != "t5" {
		t.Fatalf("Global-top2 = %s, want {t2, t5}", FormatScored(ans))
	}
}

func TestGlobalTopKProbabilitiesDescending(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		db := testdb.Random(rng, testdb.RandomConfig{MaxGroups: 6, MaxPerGroup: 3, AllowNulls: true})
		k := 1 + rng.Intn(db.NumGroups())
		info, err := TopKProbabilities(db, k)
		if err != nil {
			t.Fatal(err)
		}
		ans := GlobalTopK(db, info)
		if len(ans) > k {
			t.Fatalf("Global-topk returned %d > k=%d answers", len(ans), k)
		}
		for i := 1; i < len(ans); i++ {
			if ans[i].Prob > ans[i-1].Prob {
				t.Fatal("Global-topk answers not in descending probability order")
			}
		}
		for _, a := range ans {
			if a.Tuple.Null {
				t.Fatal("Global-topk returned a null tuple")
			}
		}
	}
}

func TestGlobalTopKTieBreakByRank(t *testing.T) {
	// Two certain x-tuples: both have p=1; the higher-ranked one must come
	// first.
	db := uncertain.New()
	if err := db.AddXTuple("A", uncertain.Tuple{ID: "low", Attrs: []float64{1}, Prob: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddXTuple("B", uncertain.Tuple{ID: "high", Attrs: []float64{2}, Prob: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(uncertain.ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	info, _ := TopKProbabilities(db, 2)
	ans := GlobalTopK(db, info)
	if len(ans) != 2 || ans[0].Tuple.ID != "high" || ans[1].Tuple.ID != "low" {
		t.Fatalf("tie-break wrong: %s", FormatScored(ans))
	}
}

func TestFormatters(t *testing.T) {
	db := testdb.UDB1()
	info, _ := RankProbabilities(db, 2)
	ranked, _ := UKRanks(db, info)
	if s := FormatRanked(ranked); s == "" {
		t.Fatal("FormatRanked empty")
	}
	if s := FormatScored(nil); s != "{}" {
		t.Fatalf("FormatScored(nil) = %q, want {}", s)
	}
}

// prefix yields src's first n rank positions, for the references that
// read every alternative of the processed prefix.
func prefix(src Source, n int) iter.Seq2[*uncertain.Tuple, int] {
	return func(yield func(*uncertain.Tuple, int) bool) {
		if n <= 0 {
			return
		}
		i := 0
		for t, g := range src.Ranked(0) {
			i++
			if !yield(t, g) || i == n {
				return
			}
		}
	}
}

// firstNull returns the first of src's leading n positions that holds a
// null alternative, or n when none does: the null start a scan of that
// prefix records.
func firstNull(src Source, n int) int {
	i := 0
	for t := range prefix(src, n) {
		if t.Null {
			return i
		}
		i++
	}
	return n
}

// ptkReference is PT-k by a walk that reads every alternative of the
// processed prefix and skips the nulls as it meets them.
func ptkReference(src Source, info *RankInfo, threshold float64) []ScoredAnswer {
	var out []ScoredAnswer
	i := -1
	for t := range prefix(src, info.Processed) {
		i++
		if t.Null {
			continue
		}
		if p := info.P(i); p >= threshold {
			out = append(out, snapshotScored(t, i, p))
		}
	}
	return out
}

// globalTopKReference is the sort-based Global-topk GlobalTopK replaced:
// every positive real candidate, stably sorted by (probability desc, rank
// asc), cut to K. It is the reference the bounded selection must match.
func globalTopKReference(src Source, info *RankInfo) []ScoredAnswer {
	cand := make([]ScoredAnswer, 0, info.Processed)
	i := -1
	for t := range prefix(src, info.Processed) {
		i++
		if t.Null {
			continue
		}
		if p := info.P(i); p > 0 {
			cand = append(cand, snapshotScored(t, i, p))
		}
	}
	sort.SliceStable(cand, func(a, b int) bool {
		if cand[a].Prob != cand[b].Prob {
			return cand[a].Prob > cand[b].Prob
		}
		return cand[a].Rank < cand[b].Rank
	})
	if len(cand) > info.K {
		cand = cand[:info.K]
	}
	return cand
}

// TestGlobalTopKMatchesReference compares the bounded selection with the
// sort-based reference on random top-k probabilities over random
// databases: quantized to a few levels so ties are everywhere, mostly
// zero so fewer than K candidates are positive, and with K = Processed.
func TestGlobalTopKMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		db := resumeTestDB(t, rng, 5+rng.Intn(60))
		n := db.NumTuples()
		info := &RankInfo{N: n, Processed: 1 + rng.Intn(n), K: 1 + rng.Intn(db.NumGroups())}
		levels, zeroFrac := 1+rng.Intn(4), 0.2
		switch trial % 3 {
		case 1:
			zeroFrac = 0.97 // fewer than K positive candidates
		case 2:
			info.K = info.Processed
		}
		info.TopK = make([]float64, info.Processed)
		for i := range info.TopK {
			if rng.Float64() >= zeroFrac {
				info.TopK[i] = float64(1+rng.Intn(levels)) / float64(levels)
			}
		}
		info.nullStart = firstNull(db, info.Processed)
		got, want := GlobalTopK(db, info), globalTopKReference(db, info)
		if len(got) != len(want) {
			t.Fatalf("trial %d (K=%d, Processed=%d): %d answers, reference %d", trial, info.K, info.Processed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (K=%d, Processed=%d): answer %d = %+v, reference %+v", trial, info.K, info.Processed, i, got[i], want[i])
			}
		}
	}
}

// TestGlobalTopKAllocsIndependentOfPrefix pins O(K) space: Global-topk over
// a prefix four times as long allocates the same bytes.
func TestGlobalTopKAllocsIndependentOfPrefix(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts shift under the race detector")
	}
	const k = 10
	perCall := func(head int) (float64, int) {
		db := headTailDB(t, head, head)
		info, err := TopKProbabilities(db, k)
		if err != nil {
			t.Fatal(err)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			GlobalTopK(db, info)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs, info.Processed
	}
	small, pSmall := perCall(400)
	large, pLarge := perCall(1600)
	if large != small {
		t.Fatalf("GlobalTopK allocates %.0f bytes over %d positions vs %.0f over %d; want equal", large, pLarge, small, pSmall)
	}
}

// ukRanksReference is U-kRanks by a walk that reads every alternative of
// the processed prefix and skips the nulls as it meets them.
func ukRanksReference(src Source, info *RankInfo) []RankedAnswer {
	k := info.K
	bestP := make([]float64, k+1)
	bestI := make([]int, k+1)
	bestT := make([]*uncertain.Tuple, k+1)
	for h := range bestI {
		bestI[h] = -1
	}
	i := -1
	for t := range prefix(src, info.Processed) {
		i++
		if t.Null {
			continue
		}
		for h := 1; h <= k; h++ {
			if p := info.Rho(i, h); p > bestP[h] {
				bestP[h], bestI[h], bestT[h] = p, i, t
			}
		}
	}
	out := make([]RankedAnswer, 0, k)
	for h := 1; h <= k; h++ {
		if bestI[h] >= 0 {
			out = append(out, snapshotRanked(h, bestT[h], bestI[h], bestP[h]))
		}
	}
	return out
}

// TestAnswersPickedFromInfoMatchWalk pins U-kRanks, Global-topk and
// PT-k, which pick from the info's real positions and read the source
// only at their answers, against walks that read every alternative. The
// probabilities are random over databases whose processed prefix holds
// nulls, so in some trials a null has the best probability — a pick that
// ignored the null start would answer with it; ties are frequent, so the
// rank tie-break is exercised too.
func TestAnswersPickedFromInfoMatchWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var ukNullWins, gtkNullWins int
	for trial := 0; trial < 300; trial++ {
		db := resumeTestDB(t, rng, 5+rng.Intn(60))
		n := db.NumTuples()
		k := 1 + rng.Intn(min(db.NumGroups(), 8))
		info := &RankInfo{N: n, Processed: 1 + rng.Intn(n), K: k}
		// A few levels make ties; every third trial draws from a
		// continuum, so a late position — a null — can win a rank.
		levels := 1 + rng.Intn(4)
		continuous := trial%3 == 0
		draw := func() float64 {
			switch {
			case rng.Float64() < 0.3:
				return 0
			case continuous:
				return rng.Float64()
			}
			return float64(1+rng.Intn(levels)) / float64(levels)
		}
		info.TopK = make([]float64, info.Processed)
		rows := make([]float64, info.Processed*k)
		for i := range info.TopK {
			info.TopK[i] = draw()
			for h := range k {
				rows[i*k+h] = draw()
			}
		}
		var src Source = db
		if trial%2 == 1 {
			src = swapped{db}
		}
		info.nullStart = firstNull(src, info.Processed)
		info.setRho(rows)
		// A null wins where the pick over every processed position, nulls
		// included, answers with one.
		all := *info
		all.nullStart = info.Processed
		all.setRho(rows)
		if uk, _ := UKRanks(src, &all); slices.ContainsFunc(uk, func(a RankedAnswer) bool { return a.Tuple.Null }) {
			ukNullWins++
		}
		if slices.ContainsFunc(GlobalTopK(src, &all), func(a ScoredAnswer) bool { return a.Tuple.Null }) {
			gtkNullWins++
		}
		uk, err := UKRanks(src, info)
		if err != nil {
			t.Fatal(err)
		}
		if want := ukRanksReference(src, info); !slices.Equal(uk, want) {
			t.Fatalf("trial %d (K=%d, Processed=%d): U-kRanks %s, walk %s", trial, k, info.Processed, FormatRanked(uk), FormatRanked(want))
		}
		if got, want := GlobalTopK(src, info), globalTopKReference(src, info); !slices.Equal(got, want) {
			t.Fatalf("trial %d (K=%d, Processed=%d): Global-topk %s, walk %s", trial, k, info.Processed, FormatScored(got), FormatScored(want))
		}
		threshold := draw()
		if got, want := PTK(src, info, threshold), ptkReference(src, info, threshold); !slices.Equal(got, want) {
			t.Fatalf("trial %d (Processed=%d, threshold %v): PT-k %s, walk %s", trial, info.Processed, threshold, FormatScored(got), FormatScored(want))
		}
	}
	if ukNullWins == 0 || gtkNullWins == 0 {
		t.Fatalf("a null won U-kRanks in %d trials and Global-topk in %d; the test needs both", ukNullWins, gtkNullWins)
	}
}
