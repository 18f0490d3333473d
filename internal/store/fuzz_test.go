package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/probdb/topkclean/internal/uncertain"
)

// fuzzWAL produces a valid WAL byte stream (newline-separated records): a
// build record followed by a few mutate records, exactly as a file backend
// would persist them.
func fuzzWAL() ([]byte, error) {
	db := uncertain.New()
	rng := rand.New(rand.NewSource(3))
	for g := 0; g < 8; g++ {
		n := 1 + rng.Intn(3)
		ts := make([]uncertain.Tuple, n)
		for i := range ts {
			ts[i] = uncertain.Tuple{
				ID:    fmt.Sprintf("w%d.%d", g, i),
				Attrs: []float64{rng.Float64() * 100},
				Prob:  (0.1 + 0.85*rng.Float64()) / float64(n),
			}
		}
		if err := db.AddXTuple(fmt.Sprintf("W%d", g), ts...); err != nil {
			return nil, err
		}
	}
	if err := db.Build(uncertain.ByFirstAttr); err != nil {
		return nil, err
	}
	b := Mem()
	d, err := Create(b, db, WithCheckpointEvery(0), WithNoFsync())
	if err != nil {
		return nil, err
	}
	if err := d.Batch(func(tx *Batch) error {
		return tx.InsertXTuple("extra", uncertain.Tuple{ID: "extra.0", Attrs: []float64{42}, Prob: 0.6})
	}); err != nil {
		return nil, err
	}
	if err := d.Batch(func(tx *Batch) error { return tx.Reweight(2, []float64{0.3}) }); err != nil {
		return nil, err
	}
	if err := d.Batch(func(tx *Batch) error { return tx.DeleteXTuple(0) }); err != nil {
		return nil, err
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	var recs [][]byte
	if _, err := b.TailRecords(0, func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		return nil, err
	}
	return bytes.Join(recs, []byte("\n")), nil
}

// FuzzWALReplay drives arbitrary record streams through the one replay
// path (Replayer.Apply, shared by Open and the tailing replica). The
// contract: a record either applies cleanly — advancing the version chain
// and leaving a database that still passes Validate — or is rejected with
// an error wrapping ErrCorrupt (ErrGap for chain breaks). No input may
// panic or corrupt already-applied state.
func FuzzWALReplay(f *testing.F) {
	valid, err := fuzzWAL()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// Chain-break seeds: records reordered, dropped, and damaged.
	lines := bytes.Split(valid, []byte("\n"))
	if len(lines) >= 3 {
		f.Add(bytes.Join([][]byte{lines[0], lines[2]}, []byte("\n")))           // gap
		f.Add(bytes.Join([][]byte{lines[1], lines[0]}, []byte("\n")))           // mutate first
		f.Add(bytes.Join([][]byte{lines[0], lines[1], lines[1]}, []byte("\n"))) // duplicate
		f.Add(bytes.Join([][]byte{lines[0], lines[1][:10]}, []byte("\n")))      // truncated record
	}
	f.Add([]byte(`{"v":1,"op":"build","db":{}}`))
	f.Add([]byte(`{"v":1,"op":"mutate","ops":[{"op":"delete","group":0}]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := &Replayer{Rank: uncertain.ByFirstAttr}
		var lastVersion uint64
		for _, rec := range bytes.Split(data, []byte("\n")) {
			if len(rec) == 0 {
				continue
			}
			if err := r.Apply(rec); err != nil {
				if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrGap) {
					t.Fatalf("replay error outside the ErrCorrupt/ErrGap contract: %v", err)
				}
				break
			}
			if r.DB != nil {
				if v := r.DB.Version(); v < lastVersion {
					t.Fatalf("replay moved the version chain backwards: %d after %d", v, lastVersion)
				} else {
					lastVersion = v
				}
			}
		}
		if r.DB != nil {
			if err := r.DB.Validate(); err != nil {
				t.Fatalf("replayed database fails validation: %v", err)
			}
		}
	})
}
