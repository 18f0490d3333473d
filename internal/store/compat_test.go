package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/probdb/topkclean/internal/uncertain"
)

// frame returns the on-disk bytes of one frame, as writeFrame writes them,
// for tests that plant files a crash would leave.
func frame(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// stateDigest fingerprints everything a recovered database exposes through
// its public API: version, every x-tuple and alternative (IDs, float bits,
// stamps, null flags, group indices), the rank order, the bit-exact
// answers, and the stamp the next insert draws. Written against the API
// both before and after the binary wire format, so a digest recorded from
// a store recovered at one commit checks a store recovered at another.
func stateDigest(t testing.TB, db *uncertain.Database) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "v%d m%d n%d real%d\n", db.Version(), db.NumGroups(), db.NumTuples(), db.NumRealTuples())
	for gi, x := range db.Groups() {
		fmt.Fprintf(h, "x%d %q %d\n", gi, x.Name, len(x.Tuples))
		for _, tp := range x.Tuples {
			fmt.Fprintf(h, " %q p%x s%x g%d null%v stamp%d", tp.ID, math.Float64bits(tp.Prob), math.Float64bits(tp.Score), tp.Group, tp.Null, tp.Stamp())
			for _, a := range tp.Attrs {
				fmt.Fprintf(h, " a%x", math.Float64bits(a))
			}
			fmt.Fprintln(h)
		}
	}
	for i, tp := range db.Sorted() {
		fmt.Fprintf(h, "r%d %q\n", i, tp.ID)
	}
	fmt.Fprintf(h, "%+v\n", answersOf(t, db))
	probe := db.Clone()
	if err := probe.InsertXTuple("digest-probe", uncertain.Tuple{ID: "digest-probe.0", Attrs: []float64{1}, Prob: 0.5}); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "next stamp %d\n", probe.GroupAt(probe.NumGroups() - 1).Tuples[0].Stamp())
	return hex.EncodeToString(h.Sum(nil))
}

// v1StoreDigest is stateDigest of the database testdata/v1store holds,
// recorded when that store was written — by the last version that wrote
// topkclean-wire/v1 — from its own recovery of the same files.
const v1StoreDigest = "552bb85967cc73c070f8cf6763dfe40972447aa937751b44ed952759594d2cb4"

// TestOpenV1Store opens a file store written before the binary wire
// format: seedDB(t, 20) created with WithCheckpointEvery(0), the 14
// mutationScript commits journaled (v15), then a v1 checkpoint of v8
// planted beside the untrimmed WAL — the shape a crash between the
// checkpoint rename and the WAL rotation leaves. Recovery from the
// checkpoint plus the WAL, and from the WAL alone (which decodes the JSON
// build record), must both reach the recorded state; a checkpoint then
// rewrites it as v2, and reopening that yields the same state again.
func TestOpenV1Store(t *testing.T) {
	const ckpt = "checkpoint-8.ckpt"
	for _, name := range []string{ckpt, walName} {
		raw, err := os.ReadFile(filepath.Join("testdata", "v1store", name))
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) <= frameHdr || raw[frameHdr] != '{' {
			t.Fatalf("testdata/v1store/%s does not open with a JSON payload", name)
		}
	}
	open := func(dir string) (*DB, *FileBackend) {
		t.Helper()
		b, err := OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		sdb, err := Open(b, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sdb, b
	}

	walOnly := copyDir(t, filepath.Join("testdata", "v1store"))
	if err := os.Remove(filepath.Join(walOnly, ckpt)); err != nil {
		t.Fatal(err)
	}
	sdb, _ := open(walOnly)
	if got := stateDigest(t, sdb.DB()); got != v1StoreDigest {
		t.Fatalf("WAL-only recovery of the v1 store: digest %s, recorded %s", got, v1StoreDigest)
	}
	if err := sdb.Close(); err != nil {
		t.Fatal(err)
	}

	dir := copyDir(t, filepath.Join("testdata", "v1store"))
	sdb, b := open(dir)
	if got := stateDigest(t, sdb.DB()); got != v1StoreDigest {
		t.Fatalf("checkpoint+WAL recovery of the v1 store: digest %s, recorded %s", got, v1StoreDigest)
	}
	if err := sdb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	data, v, ok, err := b.LoadCheckpoint()
	if err != nil || !ok || v != 15 {
		t.Fatalf("checkpoint after recovery: v%d ok=%v err=%v", v, ok, err)
	}
	if string(data[:len(uncertain.WireFormat)]) != uncertain.WireFormat {
		t.Fatalf("checkpoint written as %q, want %s", data[:min(len(data), 20)], uncertain.WireFormat)
	}
	if err := sdb.Close(); err != nil {
		t.Fatal(err)
	}
	sdb, _ = open(dir)
	defer sdb.Close()
	if got := stateDigest(t, sdb.DB()); got != v1StoreDigest {
		t.Fatalf("reopened from the v2 checkpoint: digest %s, recorded %s", got, v1StoreDigest)
	}
}
