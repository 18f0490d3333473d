package topkq

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/probdb/topkclean/internal/testdb"
	"github.com/probdb/topkclean/internal/uncertain"
)

// benchGrid builds a database with the given number of x-tuples, each with
// alts equally likely alternatives spread over distinct score bands, so
// PSR's scan visits a predictable mixture of groups.
func benchGrid(b *testing.B, groups, alts int) *uncertain.Database {
	b.Helper()
	db := uncertain.New()
	for g := 0; g < groups; g++ {
		ts := make([]uncertain.Tuple, alts)
		for a := 0; a < alts; a++ {
			ts[a] = uncertain.Tuple{
				ID:    fmt.Sprintf("g%d.a%d", g, a),
				Attrs: []float64{float64((g*31+a*7)%997) + float64(g)/1000},
				Prob:  1 / float64(alts),
			}
		}
		if err := db.AddXTuple(fmt.Sprintf("g%d", g), ts...); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Build(uncertain.ByFirstAttr); err != nil {
		b.Fatal(err)
	}
	return db
}

func BenchmarkPSRTopKOnly(b *testing.B) {
	for _, groups := range []int{100, 1000} {
		for _, k := range []int{5, 50} {
			b.Run(fmt.Sprintf("m=%d/k=%d", groups, k), func(b *testing.B) {
				db := benchGrid(b, groups, 5)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := TopKProbabilities(db, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkPSRWithRho(b *testing.B) {
	db := benchGrid(b, 1000, 5)
	for i := 0; i < b.N; i++ {
		if _, err := RankProbabilities(db, 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNaiveRankProbabilities(b *testing.B) {
	db := testdb.UDB1()
	for i := 0; i < b.N; i++ {
		if _, err := NaiveRankProbabilities(db, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSemantics(b *testing.B) {
	db := benchGrid(b, 1000, 5)
	info, err := RankProbabilities(db, 20)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("UKRanks", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := UKRanks(db, info); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PTK", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = PTK(db, info, 0.1)
		}
	})
	b.Run("GlobalTopK", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = GlobalTopK(db, info)
		}
	})
}

// BenchmarkResumeGrowingM measures a resume that rescans the processed
// prefix of a database that gains one x-tuple before every op, below the
// prefix, as on a daemon that inserts between queries. The insert is
// outside the timer; ns/op and B/op are the rescan alone, and should not
// move between the two sizes.
func BenchmarkResumeGrowingM(b *testing.B) {
	for _, m := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			db := headTailDB(b, 400, m)
			prior, err := TopKProbabilities(db, 10)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				insertTail(b, db)
				b.StartTimer()
				if _, err := Resume(db, prior, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkResumeRho measures a resume that rescans, from position 0,
// the processed prefix of a rank-probability pass over 10⁵ x-tuples at
// k = 15, and reports its bytes per processed position
// (TestResumeRhoBytesPerPosition pins them).
func BenchmarkResumeRho(b *testing.B) {
	db := headTailDB(b, 1000, 100_000)
	prior, err := RankProbabilities(db, 15)
	if err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := Resume(db, prior, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/float64(prior.Processed), "B/position")
}
