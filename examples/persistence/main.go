// Persistence demonstrates the durable serving loop: a sensor field is
// journaled to disk (internal/store) so that every commit — inserts,
// reweights, batches, an applied cleaning — survives a process death.
// The program runs three "daemon lifetimes" over one store directory:
//
//	life 1: create the database, mutate it, exit WITHOUT closing —
//	        simulating a crash; durability comes from the per-commit WAL
//	        fsync, not from a graceful shutdown.
//	life 2: recover (checkpoint + WAL replay), verify the answers match
//	        what life 1 last served, apply a budgeted cleaning, close
//	        gracefully (final checkpoint).
//	life 3: recover from the checkpoint alone and query once more.
//
// The recovered database is bit-identical: same version counter, same
// rank order, same Float64bits of every probability and quality score.
// See PERSISTENCE.md for the format and the crash-recovery contract.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"

	topkclean "github.com/probdb/topkclean"
	"github.com/probdb/topkclean/internal/store"
)

const (
	sensors = 120
	k       = 6
	budget  = 10
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "topkclean-persistence")
	must(err)
	defer os.RemoveAll(dir)

	// ---- life 1: create, serve, mutate, crash --------------------------
	rng := rand.New(rand.NewSource(7))
	db := topkclean.NewDatabase()
	for s := 0; s < sensors; s++ {
		base := 20 + 60*rng.Float64()
		must(db.AddXTuple(fmt.Sprintf("sensor-%d", s),
			topkclean.Tuple{ID: fmt.Sprintf("s%d.a", s), Attrs: []float64{base}, Prob: 0.5 + 0.3*rng.Float64()},
			topkclean.Tuple{ID: fmt.Sprintf("s%d.b", s), Attrs: []float64{base - 5}, Prob: 0.2}))
	}
	must(db.Build(topkclean.ByFirstAttr))

	backend, err := store.OpenDir(dir)
	must(err)
	sdb, err := store.Create(backend, db)
	must(err)
	fmt.Printf("life 1: created store at version %d (%d x-tuples)\n", db.Version(), db.NumGroups())

	// Serve and mutate: a hot reading arrives, a sensor is revised, a
	// burst commits as one batch (one WAL record).
	must(sdb.Batch(func(b *store.Batch) error {
		return b.InsertXTuple("sensor-hot", topkclean.Tuple{ID: "hot.a", Attrs: []float64{150}, Prob: 0.9})
	}))
	must(sdb.Batch(func(b *store.Batch) error { return b.Reweight(3, []float64{0.8, 0.1}) }))
	must(sdb.Batch(func(b *store.Batch) error {
		if err := b.InsertXTuple("sensor-late", topkclean.Tuple{ID: "late.a", Attrs: []float64{90}, Prob: 0.7}); err != nil {
			return err
		}
		return b.DeleteXTuple(10)
	}))

	eng, err := topkclean.New(sdb.DB(), topkclean.WithK(k), topkclean.WithPTKThreshold(0.1))
	must(err)
	res, err := eng.Answers(ctx)
	must(err)
	fmt.Printf("life 1: version %d  top-%d %s  quality %.4f\n",
		res.Version, k, topkclean.FormatScored(res.GlobalTopK), res.Quality)
	lastVersion, lastTopK, lastQuality := res.Version, topkclean.FormatScored(res.GlobalTopK), res.Quality

	// Crash: the process dies here — no store Close, no final checkpoint;
	// every commit above was already fsynced to the WAL before it
	// returned, so the bytes on disk are exactly what a kill would leave.
	// (Closing the backend's file handles stands in for process death:
	// it releases the single-opener flock a real dead process would drop,
	// and flushes nothing that wasn't already durable.)
	must(backend.Close())
	sdb, eng = nil, nil

	// ---- life 2: recover, verify, clean, close gracefully --------------
	backend, err = store.OpenDir(dir)
	must(err)
	sdb, err = store.Open(backend, topkclean.ByFirstAttr)
	must(err)
	records, ckptVer := sdb.SinceCheckpoint()
	fmt.Printf("life 2: recovered version %d (checkpoint v%d + %d WAL records)\n",
		sdb.DB().Version(), ckptVer, records)

	eng, err = topkclean.New(sdb.DB(), topkclean.WithK(k), topkclean.WithPTKThreshold(0.1))
	must(err)
	res, err = eng.Answers(ctx)
	must(err)
	bitIdentical := res.Version == lastVersion &&
		topkclean.FormatScored(res.GlobalTopK) == lastTopK &&
		math.Float64bits(res.Quality) == math.Float64bits(lastQuality)
	fmt.Printf("life 2: answers bit-identical to pre-crash: %v\n", bitIdentical)

	// Clean the field and journal the outcome, then shut down cleanly.
	spec := topkclean.UniformCleaningSpec(sdb.DB().NumGroups(), 1, 1)
	plan, cctx, err := eng.PlanCleaning(ctx, "greedy", spec, budget)
	must(err)
	out, err := eng.ApplyCleaning(ctx, cctx, plan, rand.New(rand.NewSource(3)))
	must(err)
	must(sdb.JournalCleaning(out.Choices))
	fmt.Printf("life 2: cleaned %d x-tuples, quality %.4f -> %.4f, version %d\n",
		len(out.Choices), res.Quality, out.NewQuality, sdb.DB().Version())
	must(sdb.Close()) // graceful: final checkpoint + sync

	// ---- life 3: recover from the checkpoint alone ---------------------
	backend, err = store.OpenDir(dir)
	must(err)
	sdb, err = store.Open(backend, topkclean.ByFirstAttr)
	must(err)
	defer sdb.Close()
	records, ckptVer = sdb.SinceCheckpoint()
	eng, err = topkclean.New(sdb.DB(), topkclean.WithK(k), topkclean.WithPTKThreshold(0.1))
	must(err)
	res, err = eng.Answers(ctx)
	must(err)
	fmt.Printf("life 3: recovered version %d (checkpoint v%d + %d WAL records)  quality %.4f\n",
		res.Version, ckptVer, records, res.Quality)
	match := math.Float64bits(res.Quality) == math.Float64bits(out.NewQuality)
	fmt.Printf("life 3: post-cleaning quality survived the restart: %v\n", match)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
