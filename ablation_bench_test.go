package topkclean

// Ablation benchmarks for the design choices documented in DESIGN.md:
//
//  1. PSR's O(k) deconvolution recurrence vs. taking the excluded-group
//     Poisson binomial from the exclusion tree at every position whose
//     own group already has mass above the scan point.
//  2. The DP planner's geometric-decay cap on per-x-tuple operation counts
//     vs. the paper's raw J_l = floor(C/c_l).
//  3. The greedy planner's heap vs. a full re-scan per taken operation.
//  4. Compensated (Kahan) vs. naive summation for the entropy accumulation
//     (correctness ablation: the benchmark reports the absolute drift).

import (
	"fmt"
	"testing"

	"github.com/probdb/topkclean/internal/cleaning"
	"github.com/probdb/topkclean/internal/numeric"
	"github.com/probdb/topkclean/internal/quality"
	"github.com/probdb/topkclean/internal/topkq"
)

func BenchmarkAblationPSR_Deconvolution(b *testing.B) {
	db := benchSynthetic(b, 5000)
	for i := 0; i < b.N; i++ {
		if _, err := topkq.TopKProbabilities(db, 15); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPSR_RebuildOnly never deconvolves: every position with
// q > 0 queries the exclusion tree (O(k²·log(active/k)) plus the cleaning
// of what the updates since the last query dirtied), so the gap to
// BenchmarkAblationPSR_Deconvolution is what the O(k) recurrence buys.
func BenchmarkAblationPSR_RebuildOnly(b *testing.B) {
	db := benchSynthetic(b, 5000)
	for i := 0; i < b.N; i++ {
		if _, err := topkq.AblationRebuildOnly(db, 15); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDP_Capped(b *testing.B) {
	db := benchSynthetic(b, 5000)
	for _, c := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("C=%d", c), func(b *testing.B) {
			ctx := benchCtx(b, db, 15, c)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cleaning.DPContext(bg, ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationDP_NoCap(b *testing.B) {
	db := benchSynthetic(b, 5000)
	for _, c := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("C=%d", c), func(b *testing.B) {
			ctx := benchCtx(b, db, 15, c)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cleaning.AblationDPNoCap(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationGreedy_Heap(b *testing.B) {
	db := benchSynthetic(b, 5000)
	ctx := benchCtx(b, db, 15, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cleaning.GreedyContext(bg, ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGreedy_Rescan(b *testing.B) {
	db := benchSynthetic(b, 5000)
	ctx := benchCtx(b, db, 15, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cleaning.AblationGreedyRescan(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEntropy_Kahan(b *testing.B) {
	dist := benchDist(b)
	var s float64
	for i := 0; i < b.N; i++ {
		s = numeric.NegEntropyBits(dist)
	}
	b.ReportMetric(s, "entropy")
}

func BenchmarkAblationEntropy_Naive(b *testing.B) {
	dist := benchDist(b)
	kahan := numeric.NegEntropyBits(dist)
	var s float64
	for i := 0; i < b.N; i++ {
		s = 0
		for _, p := range dist {
			s += numeric.Y(p)
		}
	}
	// Report how far naive summation drifts from the compensated result.
	drift := s - kahan
	if drift < 0 {
		drift = -drift
	}
	b.ReportMetric(drift, "abs-drift")
}

// benchDist materializes a large pw-result probability vector (the PWR
// distribution of a small-k query on a mid-sized database).
func benchDist(b *testing.B) []float64 {
	b.Helper()
	db := benchSynthetic(b, 100)
	d, err := quality.PWRDist(db, 5)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]float64, len(d))
	for i, r := range d {
		out[i] = r.Prob
	}
	return out
}
