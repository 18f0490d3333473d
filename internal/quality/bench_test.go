package quality

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/probdb/topkclean/internal/testdb"
	"github.com/probdb/topkclean/internal/topkq"
	"github.com/probdb/topkclean/internal/uncertain"
)

func benchDB(b *testing.B, groups int) *uncertain.Database {
	b.Helper()
	// testdb.Random draws the group count uniformly in [1, groups]; retry
	// deterministically until the database is large enough for every
	// benchmark's k.
	rng := rand.New(rand.NewSource(11))
	for {
		db := testdb.Random(rng, testdb.RandomConfig{
			MaxGroups:   groups,
			MaxPerGroup: 4,
		})
		if db.NumGroups() >= 8 {
			return db
		}
	}
}

func BenchmarkPWUDB1(b *testing.B) {
	db := testdb.UDB1()
	for i := 0; i < b.N; i++ {
		if _, err := PW(db, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPWRByK(b *testing.B) {
	db := benchDB(b, 40)
	for _, k := range []int{1, 2, 4} {
		if k > db.NumGroups() {
			continue
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := PWR(db, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTPFull(b *testing.B) {
	db := benchDB(b, 40)
	k := db.NumGroups() / 2
	if k < 1 {
		k = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TP(db, k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTPFromInfoOnly(b *testing.B) {
	// Measures just the weight computation + weighted sum, the "Step B"
	// overhead on top of a shared PSR pass.
	db := benchDB(b, 40)
	k := db.NumGroups() / 2
	if k < 1 {
		k = 1
	}
	info, err := topkq.TopKProbabilities(db, k)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TPFromInfo(db, info); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUTopK(b *testing.B) {
	db := benchDB(b, 40)
	for i := 0; i < b.N; i++ {
		if _, err := UTopK(db, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTPFromInfoGrowingM measures one TP pass on a database that
// gains one x-tuple before every op, below the processed prefix, as on a
// daemon that inserts between queries. The insert and the (pure-hit)
// resume that follows it are outside the timer; ns/op and B/op are the
// pass alone, and should not move between the two sizes.
func BenchmarkTPFromInfoGrowingM(b *testing.B) {
	for _, m := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			db := headTailDB(b, 400, m)
			info, err := topkq.TopKProbabilities(db, 10)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				v := db.Version()
				insertTail(b, db)
				wm, _ := db.DirtySince(v)
				if info, err = topkq.Resume(db, info, wm); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := TPFromInfo(db, info); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
