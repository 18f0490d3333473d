package uncertain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
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

// TestWireV1StillDecodes: a topkclean-wire/v1 document, as earlier
// versions wrote it, decodes to the same state, and that state re-encodes
// to exactly the v2 bytes of the original.
func TestWireV1StillDecodes(t *testing.T) {
	db := wireTestDB(t)
	v1, err := encodeWireV1(db)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeWire(v1, ByFirstAttr)
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, db, back)
	want, err := EncodeWire(db)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EncodeWire(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("v1-decoded database does not re-encode to the original's v2 bytes")
	}
	if len(want) >= len(v1) {
		t.Fatalf("v2 is %d bytes, v1 %d", len(want), len(v1))
	}
}

// TestWireSizeExact: AppendWire sizes its buffer once, exactly.
func TestWireSizeExact(t *testing.T) {
	db := wireTestDB(t)
	data, err := EncodeWire(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != wireSize(db, positions{}) {
		t.Fatalf("encoded %d bytes, wireSize %d", len(data), wireSize(db, positions{}))
	}
	if !raceEnabled {
		if a := testing.AllocsPerRun(10, func() { _, _ = EncodeWire(db) }); a != 1 {
			t.Fatalf("EncodeWire allocates %v times, want once", a)
		}
	}
	prefixed, err := AppendWire([]byte("hdr"), db)
	if err != nil {
		t.Fatal(err)
	}
	if string(prefixed[:3]) != "hdr" || !bytes.Equal(prefixed[3:], data) {
		t.Fatal("AppendWire did not append the EncodeWire bytes after the prefix")
	}
}

// wireHeader returns a v2 header announcing m x-tuples and n alternatives.
func wireHeader(m, n uint64) []byte {
	h := []byte(wireMagic)
	h = binary.AppendUvarint(h, 1) // version
	h = binary.AppendVarint(h, 0)  // next stamp
	h = binary.AppendUvarint(h, 1) // next uid
	h = binary.AppendUvarint(h, m)
	return binary.AppendUvarint(h, n)
}

// TestWireV2RejectsCorrupt: every malformed v2 input fails with a typed
// error — truncation at every byte, counts no input could hold, rank
// entries that repeat or misorder alternatives, trailing bytes.
func TestWireV2RejectsCorrupt(t *testing.T) {
	db := wireTestDB(t)
	data, err := EncodeWire(db)
	if err != nil {
		t.Fatal(err)
	}
	for cut := range len(data) {
		_, err := DecodeWire(data[:cut], ByFirstAttr)
		if !errors.Is(err, ErrWireCorrupt) && !errors.Is(err, ErrWireFormat) {
			t.Fatalf("prefix of %d/%d bytes: %v", cut, len(data), err)
		}
	}
	huge := append(wireHeader(1<<40, 1), make([]byte, 64)...)
	if _, err := DecodeWire(huge, nil); !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("2^40 x-tuples in 64 bytes: %v", err)
	}
	huge = append(wireHeader(1, 1<<50), make([]byte, 64)...)
	if _, err := DecodeWire(huge, nil); !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("2^50 alternatives in 64 bytes: %v", err)
	}
	// One x-tuple whose name claims more bytes than follow.
	long := binary.AppendUvarint(wireHeader(1, 1), 1<<30)
	long = append(long, make([]byte, 32)...)
	if _, err := DecodeWire(long, nil); !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("2^30-byte name in 32 bytes: %v", err)
	}
	// Rank positions that repeat one, or swap two, alternatives.
	var pos []int
	for _, x := range db.groups.All() {
		for _, t := range x.Tuples {
			pos = append(pos, t.Index())
		}
	}
	dup := slices.Clone(pos)
	dup[0] = pos[1]
	if _, err := DecodeWire(appendWire(nil, db, positions{byWalk: dup}), nil); !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("two alternatives at one position: %v", err)
	}
	swapped := slices.Clone(pos)
	swapped[0], swapped[1] = pos[1], pos[0] // a1 (score 30) and a2 (score 20)
	if _, err := DecodeWire(appendWire(nil, db, positions{byWalk: swapped}), nil); !errors.Is(err, ErrWireOrder) {
		t.Fatalf("two alternatives' positions swapped: %v", err)
	}
	if got, err := DecodeWire(appendWire(nil, db, positions{byWalk: pos}), nil); err != nil {
		t.Fatalf("positions read off Index: %v", err)
	} else {
		sameState(t, db, got)
	}
	// A null alternative anywhere but last breaks RealTuples and
	// NullTuple, and Validate does not look: both formats refuse it.
	x := db.groups.At(3) // E: e1, e2 and a null
	last := len(x.Tuples) - 1
	if !x.Tuples[last].Null {
		t.Fatalf("wireTestDB's group 3 is %v, want a null last", x.Tuples)
	}
	x.Tuples[0], x.Tuples[last] = x.Tuples[last], x.Tuples[0]
	nullFirst := appendWire(nil, db, positions{byWalk: pos})
	nullFirstV1, err := encodeWireV1(db)
	if err != nil {
		t.Fatal(err)
	}
	x.Tuples[0], x.Tuples[last] = x.Tuples[last], x.Tuples[0]
	for _, enc := range [][]byte{nullFirst, nullFirstV1} {
		if _, err := DecodeWire(enc, nil); !errors.Is(err, ErrWireCorrupt) {
			t.Fatalf("null alternative first (%.17s…): %v", enc, err)
		}
	}
	if _, err := DecodeWire(append(bytes.Clone(data), 0), nil); !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("trailing byte: %v", err)
	}
	if _, err := DecodeWire([]byte("topkclean-wire/v9\x00"), nil); !errors.Is(err, ErrWireFormat) {
		t.Fatalf("unknown magic: %v", err)
	}
}

// TestWireSnapshotPositions: a snapshot encodes to the same bytes whether
// its rank positions come from the writer's back-pointers (the snapshot is
// the newest epoch and the writer lock is free), from a walk of its frozen
// chunks (the writer has moved past it, or holds the lock mid-commit), or
// from the live database itself; and encoding pinned snapshots while a
// writer commits concurrently always yields a database of the snapshot's
// own state.
func TestWireSnapshotPositions(t *testing.T) {
	db := wireTestDB(t)
	snap := db.Snapshot()
	live, err := EncodeWire(db)
	if err != nil {
		t.Fatal(err)
	}
	current, err := EncodeWire(snap)
	if err != nil {
		t.Fatal(err)
	}
	var locked []byte
	if err := db.Batch(func(*Batch) error {
		locked, err = EncodeWire(snap) // the writer lock is held: walk
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// Move the writer past snap: positions shift under a new top tuple and
	// a delete.
	if err := db.InsertXTuple("top", Tuple{ID: "top1", Attrs: []float64{99}, Prob: 0.9}); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteXTuple(0); err != nil {
		t.Fatal(err)
	}
	stale, err := EncodeWire(snap)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]byte{"current snapshot": current, "writer mid-commit": locked, "stale snapshot": stale} {
		if !bytes.Equal(got, live) {
			t.Fatalf("%s encodes differently from the live database it was", name)
		}
	}

	// Concurrent: a writer keeps committing while snapshots are encoded.
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := fmt.Sprintf("w%d", i)
			if err := db.InsertXTuple(id, Tuple{ID: id, Attrs: []float64{float64(i % 40)}, Prob: 0.5}); err != nil {
				done <- err
				return
			}
			if err := db.DeleteXTuple(db.NumGroups() - 1); err != nil {
				done <- err
				return
			}
		}
	}()
	for range 200 {
		s := db.Snapshot()
		data, err := EncodeWire(s)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeWire(data, ByFirstAttr)
		if err != nil {
			t.Fatal(err)
		}
		sameState(t, s.Clone(), back) // Index on a snapshot reads the writer epoch; its clone is live
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
