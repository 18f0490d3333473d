package store_test

import (
	"context"
	"fmt"
	"os"

	topkclean "github.com/probdb/topkclean"
	"github.com/probdb/topkclean/internal/store"
)

// ExampleOpen builds a database, makes it durable, mutates it through the
// store, then simulates a restart: a second Open on the same directory
// recovers the database at the exact committed version and an Engine over
// it answers queries as if the process had never died.
func ExampleOpen() {
	dir, err := os.MkdirTemp("", "topkclean-store")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	// Table I of the paper: four temperature sensors.
	db := topkclean.NewDatabase()
	db.AddXTuple("S1",
		topkclean.Tuple{ID: "t0", Attrs: []float64{21}, Prob: 0.6},
		topkclean.Tuple{ID: "t1", Attrs: []float64{32}, Prob: 0.4})
	db.AddXTuple("S2",
		topkclean.Tuple{ID: "t2", Attrs: []float64{30}, Prob: 0.7},
		topkclean.Tuple{ID: "t3", Attrs: []float64{22}, Prob: 0.3})
	db.AddXTuple("S3",
		topkclean.Tuple{ID: "t4", Attrs: []float64{25}, Prob: 0.4},
		topkclean.Tuple{ID: "t5", Attrs: []float64{27}, Prob: 0.6})
	db.AddXTuple("S4", topkclean.Tuple{ID: "t6", Attrs: []float64{26}, Prob: 1})
	if err := db.Build(topkclean.ByFirstAttr); err != nil {
		panic(err)
	}

	// Create journals the built database; every mutation through the
	// store appends one WAL record before it reports success.
	backend, err := store.OpenDir(dir)
	if err != nil {
		panic(err)
	}
	sdb, err := store.Create(backend, db)
	if err != nil {
		panic(err)
	}
	if err := sdb.Batch(func(tx *store.Batch) error { return tx.Reweight(1, []float64{0.9, 0.1}) }); err != nil { // S2 revised
		panic(err)
	}
	if err := sdb.Close(); err != nil { // graceful shutdown: checkpoint + sync
		panic(err)
	}

	// "Restart": reopen the directory and query at the recovered version.
	backend, err = store.OpenDir(dir)
	if err != nil {
		panic(err)
	}
	recovered, err := store.Open(backend, topkclean.ByFirstAttr)
	if err != nil {
		panic(err)
	}
	defer recovered.Close()
	eng, err := topkclean.New(recovered.DB(), topkclean.WithK(2), topkclean.WithPTKThreshold(0.4))
	if err != nil {
		panic(err)
	}
	res, err := eng.Answers(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Printf("recovered version: %d\n", res.Version)
	fmt.Printf("PT-2: %s\n", topkclean.FormatScored(res.PTK))
	// Output:
	// recovered version: 2
	// PT-2: {t1, t2}
}
