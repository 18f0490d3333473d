package shard

import (
	"fmt"
	"testing"

	"github.com/probdb/topkclean/internal/uncertain"
)

// byteReader doles out fuzz bytes one at a time, zero-padding past the
// end so every input decodes to some database.
type byteReader struct {
	data []byte
	i    int
}

func (r *byteReader) next() int {
	if r.i >= len(r.data) {
		return 0
	}
	b := r.data[r.i]
	r.i++
	return int(b)
}

// FuzzShardMerge decodes an arbitrary valid database, an arbitrary k and
// shard count, and an arbitrary placement — one shard per group — then
// requires the coordinator merge to reproduce the unsharded scan's
// answers bit-for-bit (rank probabilities, global top-k, quality, PTK)
// without ever panicking. Empty shards, all groups on one shard,
// all-absent databases, and total ties are all reachable encodings.
func FuzzShardMerge(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 4, 1, 0, 5, 2, 1, 7, 3, 2, 6, 1, 0, 4, 2, 3, 1})
	f.Add([]byte{11, 0, 0, 0, 0, 1, 7, 7, 200, 3, 4, 250, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{6, 4, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 1, 3, 0, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{data: data}
		db := uncertain.New()
		groups := 1 + r.next()%12
		id := 0
		for g := 0; g < groups; g++ {
			alts := r.next() % 5
			if alts == 0 {
				if err := db.AddAbsentXTuple(fmt.Sprintf("g%d", g)); err != nil {
					t.Fatal(err)
				}
				continue
			}
			ts := make([]uncertain.Tuple, alts)
			budget := 1.0
			for a := range ts {
				p := budget * (float64(1+r.next()%8) / 8) / float64(alts-a)
				if a == alts-1 && r.next()%2 == 0 {
					p = budget // full mass: no null alternative
				}
				budget -= p
				id++
				ts[a] = uncertain.Tuple{
					ID:    fmt.Sprintf("t%d", id),
					Attrs: []float64{float64(r.next() % 6), float64(r.next()) / 256},
					Prob:  p,
				}
			}
			if err := db.AddXTuple(fmt.Sprintf("g%d", g), ts...); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Build(uncertain.ByFirstAttr); err != nil {
			t.Fatal(err)
		}

		k := 1 + r.next()%6
		n := 1 + r.next()%5
		shardOf := make([]int, groups)
		for g := range shardOf {
			shardOf[g] = r.next() % n
		}

		cfg := Config{Shards: n, K: k, Threshold: 0.25, Rank: db.Rank()}
		c, err := newCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		berr := c.buildFromLocked(db, db.Version(), func(g int, _ []int) int { return shardOf[g] })
		c.mu.Unlock()
		if berr != nil {
			t.Fatal(berr)
		}
		compareAll(t, c, db)
		checkInvariant(t, c)
	})
}
