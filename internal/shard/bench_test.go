package shard

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/probdb/topkclean/internal/topkq"
	"github.com/probdb/topkclean/internal/uncertain"
)

// benchDB builds a randomized uncertain database of the given size: 1-3
// alternatives per x-tuple, scores spread over [0, 1000).
func benchDB(b *testing.B, groups int) *uncertain.Database {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	db := uncertain.New()
	for g := 0; g < groups; g++ {
		alts := 1 + rng.Intn(3)
		ts := make([]uncertain.Tuple, alts)
		budget := 1.0
		for a := range ts {
			p := budget * (0.2 + 0.6*rng.Float64()) / float64(alts-a)
			budget -= p
			ts[a] = uncertain.Tuple{
				ID:    fmt.Sprintf("g%d.%d", g, a),
				Attrs: []float64{rng.Float64() * 1000},
				Prob:  p,
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

// BenchmarkShardedMutateRequery measures the full serving cycle — one
// insert commit followed by the merged answer pass — at shard counts 1
// and 4 over the same database. The shards=1 series is the
// coordination-overhead baseline: a single-shard cluster pays the router
// and merge plumbing without any fan-out to amortize it. The mutate
// variant inserts at a uniformly drawn score, mostly below the scan's
// early-termination point, so the memo's resume is usually a pure cache
// hit; mutate-prefix inserts at the score of rank position Processed/2 and
// retires the previous arrival in the same commit, so every requery
// replays the second half of the processed prefix.
func BenchmarkShardedMutateRequery(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			db := benchDB(b, 1200)
			info, err := topkq.TopKProbabilities(db, 15)
			if err != nil {
				b.Fatal(err)
			}
			prefixScore := db.AtRank(info.Processed / 2).Score
			run := func(score func(*rand.Rand) float64, retire bool) func(*testing.B) {
				return func(b *testing.B) {
					c, err := FromDatabase(db, Config{Shards: shards, K: 15, Threshold: 0.25})
					if err != nil {
						b.Fatal(err)
					}
					defer c.Close()
					ctx := context.Background()
					if _, err := c.Answers(ctx); err != nil {
						b.Fatal(err)
					}
					rng := rand.New(rand.NewSource(9))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						err := c.Batch(func(sb *Batch) error {
							if retire && i > 0 {
								if err := sb.DeleteXTuple(c.NumGroups() - 1); err != nil {
									return err
								}
							}
							return sb.InsertXTuple(fmt.Sprintf("b%d", i), uncertain.Tuple{
								ID:    fmt.Sprintf("b%d.a", i),
								Attrs: []float64{score(rng)},
								Prob:  0.5,
							})
						})
						if err != nil {
							b.Fatal(err)
						}
						if _, err := c.Answers(ctx); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			b.Run("mutate", run(func(rng *rand.Rand) float64 { return rng.Float64() * 1000 }, false))
			b.Run("mutate-prefix", run(func(*rand.Rand) float64 { return prefixScore }, true))
		})
	}
}
