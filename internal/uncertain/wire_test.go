package uncertain

import (
	"bytes"
	"math"
	"testing"
)

// wireTestDB builds a database that exercises every state the wire format
// must carry: multi-alternative groups, a null from a mass deficit, an
// absent group, and mutation history (insert, delete with renumbering,
// reweight, collapse) that leaves gaps in the ord/uid sequences.
func wireTestDB(t *testing.T) *Database {
	t.Helper()
	db := New()
	if err := db.AddXTuple("A",
		Tuple{ID: "a1", Attrs: []float64{30}, Prob: 0.5},
		Tuple{ID: "a2", Attrs: []float64{20}, Prob: 0.3}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddXTuple("B", Tuple{ID: "b1", Attrs: []float64{25}, Prob: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddAbsentXTuple("C"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddXTuple("D",
		Tuple{ID: "d1", Attrs: []float64{25}, Prob: 0.4}, // score tie with b1, broken by ord
		Tuple{ID: "d2", Attrs: []float64{10}, Prob: 0.6}); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertXTuple("E",
		Tuple{ID: "e1", Attrs: []float64{27}, Prob: 0.7},
		Tuple{ID: "e2", Attrs: []float64{25}, Prob: 0.2}); err != nil { // another tie on 25
		t.Fatal(err)
	}
	if err := db.DeleteXTuple(1); err != nil { // non-trailing: renumbers C, D, E
		t.Fatal(err)
	}
	if err := db.Reweight(0, []float64{0.45, 0.55}); err != nil { // null removed
		t.Fatal(err)
	}
	if err := db.Collapse(2, 0); err != nil { // resolve D to d1
		t.Fatal(err)
	}
	return db
}

// sameState asserts two databases are bit-identical in every field the
// engine and the mutation API consume.
func sameState(t *testing.T, want, got *Database) {
	t.Helper()
	if got.Version() != want.Version() {
		t.Fatalf("version %d, want %d", got.Version(), want.Version())
	}
	if got.nextOrd != want.nextOrd || got.nextUID != want.nextUID {
		t.Fatalf("counters (%d,%d), want (%d,%d)", got.nextOrd, got.nextUID, want.nextOrd, want.nextUID)
	}
	if got.NumGroups() != want.NumGroups() || got.NumTuples() != want.NumTuples() || got.nReal != want.nReal {
		t.Fatalf("sizes (%d,%d,%d), want (%d,%d,%d)",
			got.NumGroups(), got.NumTuples(), got.nReal, want.NumGroups(), want.NumTuples(), want.nReal)
	}
	for gi := 0; gi < want.NumGroups(); gi++ {
		wx, gx := want.GroupAt(gi), got.GroupAt(gi)
		if gx.Name != wx.Name || gx.uid != wx.uid || len(gx.Tuples) != len(wx.Tuples) {
			t.Fatalf("group %d: %q/uid %d/%d tuples, want %q/uid %d/%d",
				gi, gx.Name, gx.uid, len(gx.Tuples), wx.Name, wx.uid, len(wx.Tuples))
		}
	}
	ws, gs := want.Sorted(), got.Sorted()
	for i, wt := range ws {
		gt := gs[i]
		// Index() is compared rather than the raw chunk back-pointers:
		// chunk boundaries are an in-memory detail the wire form does not
		// carry, but the derived rank positions must survive the round
		// trip bit-for-bit.
		if gt.ID != wt.ID || gt.Group != wt.Group || gt.Null != wt.Null ||
			gt.ord != wt.ord || gt.Index() != wt.Index() ||
			math.Float64bits(gt.Prob) != math.Float64bits(wt.Prob) ||
			math.Float64bits(gt.Score) != math.Float64bits(wt.Score) {
			t.Fatalf("rank %d: %+v, want %+v", i, gt, wt)
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWireRoundTrip(t *testing.T) {
	db := wireTestDB(t)
	data, err := EncodeWire(db)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeWire(data, ByFirstAttr)
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, db, back)

	// A second encode of the decoded database is byte-identical: the wire
	// form is canonical, so checkpoints of equal states are equal bytes.
	again, err := EncodeWire(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("re-encoding the decoded database changed the bytes")
	}
}

// TestWireFutureMutationsIdentical: the decoded database must behave
// bit-identically under *future* mutations too — same uids for new
// x-tuples, same tie-breaks for new inserts, same version arithmetic.
func TestWireFutureMutationsIdentical(t *testing.T) {
	db := wireTestDB(t)
	data, err := EncodeWire(db)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeWire(data, ByFirstAttr)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Database{db, back} {
		if err := d.InsertXTuple("F",
			Tuple{ID: "f1", Attrs: []float64{25}, Prob: 0.5}); err != nil { // ties with b1-era scores
			t.Fatal(err)
		}
		if err := d.Batch(func(b *Batch) error {
			if err := b.Reweight(0, []float64{0.2, 0.2}); err != nil {
				return err
			}
			return b.DeleteXTuple(1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	sameState(t, db, back)
	if db.GroupAt(db.NumGroups()-1).uid != back.GroupAt(back.NumGroups()-1).uid {
		t.Fatal("post-decode insert drew a different uid")
	}
}

func TestWireRejects(t *testing.T) {
	db := wireTestDB(t)
	data, err := EncodeWire(db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeWire([]byte(`{"format":"bogus/v9"}`), nil); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, err := DecodeWire([]byte(`{`), nil); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	// A different ranking function that reorders scores must be rejected,
	// not silently served: SumOfAttrs equals ByFirstAttr on 1-attr data, so
	// negate instead.
	if _, err := DecodeWire(data, func(attrs []float64) float64 { return -attrs[0] }); err == nil {
		t.Fatal("wrong ranking function accepted")
	}
	// Unbuilt databases do not encode.
	if _, err := EncodeWire(New()); err == nil {
		t.Fatal("unbuilt database encoded")
	}
}
