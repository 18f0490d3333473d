package store

import (
	"fmt"
	"testing"
)

// BenchmarkWALAppend measures the per-commit cost of journaling one
// mutation through the store: the mutation itself (incremental reweight
// on a 1000-x-tuple database), the record encode, the append, and —
// in the fsync variant — the flush that makes it crash-durable before the
// caller sees success. The fsync/nofsync gap is the durability trade
// WithNoFsync buys (see DESIGN.md "Storage" for the measured numbers).
func BenchmarkWALAppend(b *testing.B) {
	for _, tc := range []struct {
		name string
		opts []Option
		mem  bool
	}{
		{"file-fsync", nil, false},
		{"file-nofsync", []Option{WithNoFsync()}, false},
		{"mem", nil, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var backend Backend
			if tc.mem {
				backend = Mem()
			} else {
				fb, err := OpenDir(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				backend = fb
			}
			db := seedDB(b, 1000)
			// Checkpoints off so the measurement is pure append cost.
			opts := append([]Option{WithCheckpointEvery(0)}, tc.opts...)
			sdb, err := Create(backend, db, opts...)
			if err != nil {
				b.Fatal(err)
			}
			g := db.Sorted()[db.NumTuples()/2].Group
			nReal := len(db.Groups()[g].RealTuples())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				probs := make([]float64, nReal)
				for j := range probs {
					probs[j] = (0.3 + 0.001*float64(i%100)) / float64(nReal)
				}
				if err := sdb.Batch(func(tx *Batch) error { return tx.Reweight(g, probs) }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecover measures Open: checkpoint decode plus WAL replay, for
// WALs of increasing length over a 1000-x-tuple checkpoint. Replay cost
// scales with the record count at incremental-mutation speed, which is
// what makes a few hundred records per checkpoint a cheap recovery.
func BenchmarkRecover(b *testing.B) {
	for _, records := range []int{0, 64, 256} {
		b.Run(fmt.Sprintf("wal=%d", records), func(b *testing.B) {
			backend := Mem()
			db := seedDB(b, 1000)
			sdb, err := Create(backend, db, WithCheckpointEvery(0))
			if err != nil {
				b.Fatal(err)
			}
			if err := sdb.Checkpoint(); err != nil { // start from a checkpoint, not the build record
				b.Fatal(err)
			}
			g := db.Sorted()[db.NumTuples()/2].Group
			nReal := len(db.Groups()[g].RealTuples())
			for i := 0; i < records; i++ {
				probs := make([]float64, nReal)
				for j := range probs {
					probs[j] = (0.3 + 0.001*float64(i%100)) / float64(nReal)
				}
				if err := sdb.Batch(func(tx *Batch) error { return tx.Reweight(g, probs) }); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec, err := Open(backend.Snapshot(), nil)
				if err != nil {
					b.Fatal(err)
				}
				if rec.DB().Version() != sdb.DB().Version() {
					b.Fatalf("recovered v%d, want v%d", rec.DB().Version(), sdb.DB().Version())
				}
			}
		})
	}
}
