package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"github.com/probdb/topkclean/internal/uncertain"
)

// Digests of SyntheticSized(2000, 42), computed when IDs were still
// formatted with fmt.Sprintf and the rank order came from a stable merge
// sort. A generator or Build change that moves a name, an ID, a float bit
// or a rank position fails here.
const (
	syntheticStagingDigest = "0eafb0f1ae4d3750deb08529f8211fd482c3d397bc4f7e17b5d590aa8cab27d5"
	syntheticRankDigest    = "06c28c186dc363275cbc3d84aa8459ccdd988bbac2b502716b582afc5fa22439"
)

// writeTuple feeds one tuple's identity and float bits into h.
func writeTuple(h hash.Hash, t *uncertain.Tuple) {
	var b [8]byte
	h.Write([]byte(t.ID))
	h.Write([]byte{0})
	for _, a := range t.Attrs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(a))
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(t.Prob))
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(t.Score))
	h.Write(b[:])
}

// TestSyntheticByteIdentity pins the generated database: every x-tuple
// name, tuple ID and attribute and probability bit in staging order, and
// the IDs and scores in rank order.
func TestSyntheticByteIdentity(t *testing.T) {
	db, err := SyntheticSized(2000, 42)
	if err != nil {
		t.Fatal(err)
	}
	staging := sha256.New()
	for _, x := range db.Groups() {
		staging.Write([]byte(x.Name))
		staging.Write([]byte{0})
		for _, tp := range x.Tuples {
			writeTuple(staging, tp)
		}
	}
	rank := sha256.New()
	for _, tp := range db.Sorted() {
		writeTuple(rank, tp)
	}
	if got := hex.EncodeToString(staging.Sum(nil)); got != syntheticStagingDigest {
		t.Errorf("staging digest %s, want %s", got, syntheticStagingDigest)
	}
	if got := hex.EncodeToString(rank.Sum(nil)); got != syntheticRankDigest {
		t.Errorf("rank-order digest %s, want %s", got, syntheticRankDigest)
	}
}
