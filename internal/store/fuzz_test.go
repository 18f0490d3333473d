package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/probdb/topkclean/internal/uncertain"
)

// joinRecords lays records out as a fuzz input: each one a uvarint length
// and its bytes (build records are binary, so no separator byte is safe).
func joinRecords(recs ...[]byte) []byte {
	var out []byte
	for _, r := range recs {
		out = binary.AppendUvarint(out, uint64(len(r)))
		out = append(out, r...)
	}
	return out
}

// splitRecords cuts a fuzz input back into records. A length that runs past
// the end takes what is left, and an unreadable one ends the input as one
// last record, so every byte reaches the replayer.
func splitRecords(data []byte) [][]byte {
	var recs [][]byte
	for len(data) > 0 {
		n, k := binary.Uvarint(data)
		if k <= 0 {
			return append(recs, data)
		}
		data = data[k:]
		n = min(n, uint64(len(data)))
		recs = append(recs, data[:n])
		data = data[n:]
	}
	return recs
}

// fuzzWAL returns the records of a valid WAL: a binary build record
// followed by a few mutate records, exactly as a backend would hold them.
func fuzzWAL() ([][]byte, error) {
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
	// Read the records before anything checkpoints: Close would write a
	// final checkpoint and empty the journal.
	var recs [][]byte
	if _, err := b.TailRecords(0, func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		return nil, err
	}
	return recs, nil
}

// v1Records returns the records of testdata/v1store's WAL: a JSON build
// record carrying a topkclean-wire/v1 document, then JSON mutate records.
func v1Records() ([][]byte, error) {
	wal, err := os.ReadFile(filepath.Join("testdata", "v1store", walName))
	if err != nil {
		return nil, err
	}
	var recs [][]byte
	for len(wal) >= frameHdr {
		n := int(binary.LittleEndian.Uint32(wal))
		recs = append(recs, wal[frameHdr:frameHdr+n])
		wal = wal[frameHdr+n:]
	}
	return recs, nil
}

// FuzzWALReplay drives arbitrary record streams through the one replay
// path (Replayer.Apply, shared by Open and the tailing replica). The
// contract: a record either applies cleanly — advancing the version chain
// and leaving a database that still passes Validate — or is rejected with
// an error wrapping ErrCorrupt (ErrGap for chain breaks). No input may
// panic or corrupt already-applied state.
func FuzzWALReplay(f *testing.F) {
	for _, source := range []func() ([][]byte, error){fuzzWAL, v1Records} {
		recs, err := source()
		if err != nil {
			f.Fatal(err)
		}
		// The valid stream must replay whole, or the seeds start nowhere
		// near the interesting inputs.
		r := &Replayer{Rank: uncertain.ByFirstAttr}
		for _, rec := range recs {
			if err := r.Apply(rec); err != nil {
				f.Fatal(err)
			}
		}
		if r.Replayed != len(recs) || len(recs) < 4 {
			f.Fatalf("seed stream replayed %d of %d records", r.Replayed, len(recs))
		}
		f.Add(joinRecords(recs...))
		// Chain-break seeds: records reordered, dropped, and damaged.
		f.Add(joinRecords(recs[0], recs[2]))                  // gap
		f.Add(joinRecords(recs[1], recs[0]))                  // mutate first
		f.Add(joinRecords(recs[0], recs[1], recs[1]))         // duplicate
		f.Add(joinRecords(recs[0], recs[1][:10]))             // truncated record
		f.Add(joinRecords(recs[0][:len(recs[0])/2]))          // truncated build record
		f.Add(joinRecords(recs[0][:len(recs[0])-1], recs[1])) // build record one byte short
	}
	f.Add(joinRecords([]byte{buildTag, 0x80}))   // torn version
	f.Add(joinRecords([]byte{buildTag, 1, '{'})) // v1 bytes behind the binary tag
	f.Add(joinRecords([]byte(`{"v":1,"op":"build","db":{}}`)))
	f.Add(joinRecords([]byte(`{"v":1,"op":"mutate","ops":[{"op":"delete","group":0}]}`)))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := &Replayer{Rank: uncertain.ByFirstAttr}
		var lastVersion uint64
		for _, rec := range splitRecords(data) {
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
