package uncertain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// This file is the stable wire encoding of a built database: the byte form
// the persistence layer (internal/store) journals and checkpoints. Unlike
// the dataio formats — which carry only the user-facing model (x-tuples,
// alternatives, probabilities) and *rebuild* on load — the wire form
// round-trips the full engine-visible state: the version counter, the
// insertion-order stamps that break score ties, and the stable x-tuple
// identities (uids) that scan checkpoints key on. DecodeWire therefore
// reconstructs a database that behaves bit-identically to the encoded one,
// both for queries at the recovered version and for every mutation applied
// afterwards (new inserts draw the same uids, score ties keep breaking the
// same way).
//
// The ranking function is configuration, not data (functions do not
// serialize): DecodeWire recomputes scores with the function the caller
// supplies, exactly as ReadCSV/ReadJSON do, and the caller must supply the
// function the database was built with. The decoded rank order is verified
// against the recomputed scores, so a wrong function that changes the
// order is detected rather than silently served.
//
// EncodeWire writes "topkclean-wire/v2", a length-prefixed binary form.
// Floats are stored as their raw IEEE-754 bits (little endian), so they
// survive exactly; integers are varints (encoding/binary). The layout:
//
//	magic    "topkclean-wire/v2\x00"
//	header   uvarint version, varint next stamp, uvarint next uid,
//	         uvarint x-tuple count m, uvarint alternative count n
//	m times  uvarint len(name), name, uvarint uid, uvarint alternatives k,
//	         uvarint len(ids), every ID back to back,
//	         uvarint attribute count a, a float64s back to back,
//	         k times: uvarint len(ID), uvarint len(Attrs)<<1 | null,
//	                  float64 prob, varint stamp, uvarint rank position
//
// Scores are not carried (they are recomputed), nor are a null
// alternative's attributes (it has none). Every length and count is
// checked against the bytes that remain before anything is sized by it,
// so hostile input fails with ErrWireCorrupt, never a panic or an
// allocation out of proportion to the input.
//
// DecodeWire also reads "topkclean-wire/v1", the JSON document earlier
// versions wrote (wirev1.go); the first byte tells the two apart.

// WireFormat identifies the wire encoding EncodeWire writes.
const WireFormat = "topkclean-wire/v2"

// wireMagic opens every v2 encoding. Its first byte is never '{', the
// first byte of every v1 document.
const wireMagic = WireFormat + "\x00"

// Smallest encodings of one x-tuple (five one-byte varints) and of one
// alternative (four one-byte varints and the probability); counts read
// from the input are bounded by them.
const (
	wireGroupMin = 5
	wireAltMin   = 12
)

// ErrWireFormat is returned by DecodeWire for bytes that do not carry a
// known wire format.
var ErrWireFormat = errors.New("uncertain: unknown wire format")

// ErrWireCorrupt is returned by DecodeWire for bytes that carry a known
// format but do not parse: truncated, oversized counts, rank positions out
// of range or repeated, trailing bytes.
var ErrWireCorrupt = errors.New("uncertain: corrupt wire encoding")

// ErrWireOrder is returned by DecodeWire when the decoded rank order is
// inconsistent with the scores the supplied ranking function produces —
// almost always a database encoded under a different ranking function.
var ErrWireOrder = errors.New("uncertain: decoded rank order inconsistent (wrong ranking function?)")

// EncodeWire serializes a built database (or a snapshot of one) into the
// stable wire form; it is AppendWire(nil, db).
func EncodeWire(db *Database) ([]byte, error) {
	return AppendWire(nil, db)
}

// AppendWire appends the wire form of a built database (or a snapshot of
// one) to dst, growing it once to the exact size. Encoding a live
// database directly must not run concurrently with mutations, like any
// other read of it. Encoding a pinned Snapshot is safe while the live
// database keeps mutating — which is how the store checkpoints; see
// rankPositions for what that costs.
func AppendWire(dst []byte, db *Database) ([]byte, error) {
	if !db.built {
		return nil, ErrNotBuilt
	}
	pos, unlock, err := rankPositions(db)
	if err != nil {
		return nil, err
	}
	defer unlock()
	return appendWire(dst, db, pos), nil
}

// appendWire is AppendWire with the rank positions given.
func appendWire(dst []byte, db *Database, pos positions) []byte {
	dst = slices.Grow(dst, wireSize(db, pos))
	dst = append(dst, wireMagic...)
	dst = binary.AppendUvarint(dst, db.version)
	dst = binary.AppendVarint(dst, int64(db.nextOrd))
	dst = binary.AppendUvarint(dst, db.nextUID)
	dst = binary.AppendUvarint(dst, uint64(db.groups.Len()))
	dst = binary.AppendUvarint(dst, uint64(db.rs.n))
	f := 0
	for _, x := range db.groups.All() {
		dst = binary.AppendUvarint(dst, uint64(len(x.Name)))
		dst = append(dst, x.Name...)
		dst = binary.AppendUvarint(dst, x.uid)
		dst = binary.AppendUvarint(dst, uint64(len(x.Tuples)))
		ids, attrs := arenaLens(x)
		dst = binary.AppendUvarint(dst, uint64(ids))
		for _, t := range x.Tuples {
			dst = append(dst, t.ID...)
		}
		dst = binary.AppendUvarint(dst, uint64(attrs))
		for _, t := range x.Tuples {
			for _, a := range wireAttrs(t) {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(a))
			}
		}
		for _, t := range x.Tuples {
			dst = binary.AppendUvarint(dst, uint64(len(t.ID)))
			dst = binary.AppendUvarint(dst, altFlags(t))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t.Prob))
			dst = binary.AppendVarint(dst, int64(t.ord))
			dst = binary.AppendUvarint(dst, uint64(pos.at(f, t)))
			f++
		}
	}
	return dst
}

// positions gives every alternative's rank position: from the writer's
// back-pointers (Tuple.Index) when byWalk is nil, else byWalk[f] for the
// f-th alternative in x-tuple order.
type positions struct{ byWalk []int }

func (p positions) at(f int, t *Tuple) int {
	if p.byWalk == nil {
		return t.Index()
	}
	return p.byWalk[f]
}

// rankPositions decides where AppendWire reads rank positions from, and
// returns what to call when the encode is done. The writer's back-pointers
// are exact for a live database and for a snapshot that is still its
// origin's newest epoch, provided no writer moves them during the encode:
// for a snapshot that takes the origin's writer lock, which the encode
// then holds (commits wait, queries do not). Reading them walks the
// alternatives in x-tuple order, as the encode does anyway. A snapshot the
// writer has moved past — or whose writer is mid-commit, so the lock is
// not free — is positioned by walking its own frozen chunks instead: rank
// order visits the x-tuples at random, and at 10^5 x-tuples that walk
// costs more than the rest of the encode.
func rankPositions(db *Database) (positions, func(), error) {
	if !db.frozen || db.origin == nil {
		return positions{}, func() {}, nil
	}
	o := db.origin
	if o.wmu.TryLock() {
		if o.snap.Load() == db {
			return positions{}, o.wmu.Unlock, nil
		}
		o.wmu.Unlock()
	}
	base := make([]int, db.groups.Len()+1)
	for gi, x := range db.groups.All() {
		base[gi+1] = base[gi] + len(x.Tuples)
	}
	if base[len(base)-1] != db.rs.n {
		return positions{}, nil, errSpine("x-tuples and rank order hold different alternatives")
	}
	byWalk := make([]int, db.rs.n)
	i := 0
	for _, c := range db.rs.chunks {
		for _, t := range c.tuples {
			a := -1
			if t.Group >= 0 && t.Group < db.groups.Len() {
				a = slices.Index(db.groups.At(t.Group).Tuples, t)
			}
			if a < 0 {
				return positions{}, nil, errSpine("ranked tuple missing from its x-tuple")
			}
			byWalk[base[t.Group]+a] = i
			i++
		}
	}
	return positions{byWalk: byWalk}, func() {}, nil
}

// wireSize is the exact length of db's wire form.
func wireSize(db *Database, pos positions) int {
	size := len(wireMagic) + uvarintLen(db.version) + uvarintLen(zigzag(db.nextOrd)) +
		uvarintLen(db.nextUID) + uvarintLen(uint64(db.groups.Len())) + uvarintLen(uint64(db.rs.n))
	f := 0
	for _, x := range db.groups.All() {
		ids, attrs := arenaLens(x)
		size += uvarintLen(uint64(len(x.Name))) + len(x.Name) + uvarintLen(x.uid) +
			uvarintLen(uint64(len(x.Tuples))) + uvarintLen(uint64(ids)) + ids +
			uvarintLen(uint64(attrs)) + 8*attrs
		for _, t := range x.Tuples {
			size += uvarintLen(uint64(len(t.ID))) + uvarintLen(altFlags(t)) + 8 +
				uvarintLen(zigzag(t.ord)) + uvarintLen(uint64(pos.at(f, t)))
			f++
		}
	}
	return size
}

// arenaLens returns the total ID bytes and the total carried attributes of
// x's alternatives: the sizes of its two arenas on the wire.
func arenaLens(x *XTuple) (ids, attrs int) {
	for _, t := range x.Tuples {
		ids += len(t.ID)
		attrs += len(wireAttrs(t))
	}
	return ids, attrs
}

// wireAttrs returns the attributes the wire carries for t: none for a null
// alternative.
func wireAttrs(t *Tuple) []float64 {
	if t.Null {
		return nil
	}
	return t.Attrs
}

// altFlags packs an alternative's attribute count and null flag into one
// varint.
func altFlags(t *Tuple) uint64 {
	f := uint64(len(wireAttrs(t))) << 1
	if t.Null {
		f |= 1
	}
	return f
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// zigzag maps a signed value to the unsigned one binary.AppendVarint
// writes.
func zigzag(v int) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// DecodeWire reconstructs a built database from EncodeWire bytes, or from
// the topkclean-wire/v1 JSON earlier versions wrote. rank must be the
// ranking function the database was built with (nil means ByFirstAttr, as
// in Build); scores are recomputed from it and the resulting rank order is
// validated. The returned database is live (mutable) and carries the
// encoded version counter, so consumers keyed by version — and the
// watermark log going forward — behave exactly as they would on the
// original instance.
func DecodeWire(data []byte, rank RankFunc) (*Database, error) {
	if rank == nil {
		rank = ByFirstAttr
	}
	switch {
	case len(data) >= len(wireMagic) && string(data[:len(wireMagic)]) == wireMagic:
		return decodeWireV2(data, rank)
	case len(data) > 0 && data[0] == '{':
		return decodeWireV1(data, rank)
	}
	return nil, ErrWireFormat
}

// decodeWireV2 is DecodeWire for the binary form. It keeps the checks that
// make v1 safe — recomputed scores, ranksAbove on adjacent positions,
// duplicate IDs through the ID index, validate on every x-tuple — but not
// the full Validate pass v1 ends with: the rest of that pass is implied by
// how the database is assembled here (a fresh group vector and rank store,
// every decoded alternative indexed once and placed at its own position).
func decodeWireV2(data []byte, rank RankFunc) (*Database, error) {
	r := wireReader{buf: data, p: len(wireMagic)}
	db := &Database{rank: rank, built: true}
	db.version = r.uvarint()
	db.nextOrd = r.int()
	db.nextUID = r.uvarint()
	m := r.count(wireGroupMin)
	n := r.count(wireAltMin)
	if r.err == nil && m*wireGroupMin+n*wireAltMin > len(r.buf)-r.p {
		r.fail("counts exceed the remaining input")
	}
	if r.err != nil {
		return nil, r.err
	}
	if m == 0 {
		return nil, ErrNoGroups
	}
	db.ids = newIDIndex(n)
	sorted := make([]*Tuple, n)
	left := n // alternatives the header announced but no x-tuple has claimed yet
	for gi := range m {
		x, err := r.xtuple(db, gi, left, sorted)
		if err != nil {
			return nil, err
		}
		left -= len(x.Tuples)
		db.groups.Append(x)
	}
	if left != 0 {
		return nil, fmt.Errorf("%w: %d alternatives announced, %d decoded", ErrWireCorrupt, n, n-left)
	}
	if r.p != len(r.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrWireCorrupt, len(r.buf)-r.p)
	}
	// Every alternative claimed a distinct position below n, and n of
	// them were decoded, so sorted is the whole rank order. It is chunked
	// afresh (chunk boundaries are an in-memory detail, not wire state) and
	// each position is checked against the one before under ranksAbove,
	// so a database encoded under a different ranking function fails here
	// instead of being served with a silently wrong order.
	for i := 1; i < n; i++ {
		if ranksAbove(sorted[i], sorted[i-1]) {
			return nil, fmt.Errorf("%w: rank order violated at position %d", ErrWireOrder, i)
		}
	}
	db.rs = newRankStore(n, slices.Values(sorted))
	db.publish()
	return db, nil
}

// xtuple decodes x-tuple gi straight into its arenas (the slab, the ID
// string and the attribute array newTuples would build), scores and
// indexes its alternatives, places each at its rank position in sorted
// and validates the x-tuple. It may hold at most left alternatives.
func (r *wireReader) xtuple(db *Database, gi, left int, sorted []*Tuple) (*XTuple, error) {
	name := string(r.bytes(r.count(1)))
	uid := r.uvarint()
	k := r.count(wireAltMin)
	ids := string(r.bytes(r.count(1)))
	raw := r.bytes(8 * r.count(8))
	if r.err != nil {
		return nil, r.err
	}
	if k == 0 {
		return nil, wrapGroup(ErrEmptyXTuple, name)
	}
	if k > left {
		return nil, fmt.Errorf("%w: x-tuple %q has more alternatives than announced", ErrWireCorrupt, name)
	}
	var attrs []float64
	if len(raw) > 0 {
		attrs = make([]float64, len(raw)/8)
		for i := range attrs {
			attrs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	}
	x := &XTuple{Name: name, uid: uid, Tuples: newSlab(k)}
	idOff, attrOff := 0, 0
	for i, t := range x.Tuples {
		idLen, flags := r.uvarint(), r.uvarint()
		t.Prob = r.float()
		t.ord = r.int()
		pos := r.uvarint()
		if r.err != nil {
			return nil, r.err
		}
		t.Null = flags&1 == 1
		attrLen := flags >> 1
		if idLen > uint64(len(ids)-idOff) || attrLen > uint64(len(attrs)-attrOff) || (t.Null && attrLen > 0) {
			return nil, fmt.Errorf("%w: x-tuple %q: alternative overruns its arenas", ErrWireCorrupt, name)
		}
		if t.Null && i != k-1 {
			return nil, fmt.Errorf("%w: x-tuple %q: null alternative not last", ErrWireCorrupt, name)
		}
		t.ID = ids[idOff : idOff+int(idLen)]
		idOff += int(idLen)
		if attrLen > 0 {
			end := attrOff + int(attrLen)
			t.Attrs = attrs[attrOff:end:end]
			attrOff = end
		}
		t.Group = gi
		if !t.Null {
			t.Score = db.rank(t.Attrs)
			if math.IsNaN(t.Score) {
				return nil, fmt.Errorf("tuple %q: %w", t.ID, ErrBadScore)
			}
			db.nReal++
		}
		if db.ids.put(t) {
			return nil, fmt.Errorf("tuple %q: %w", t.ID, ErrDuplicateID)
		}
		if pos >= uint64(len(sorted)) || sorted[pos] != nil {
			return nil, fmt.Errorf("%w: tuple %q: rank position %d out of range or taken", ErrWireCorrupt, t.ID, pos)
		}
		sorted[pos] = t
	}
	if idOff != len(ids) || attrOff != len(attrs) {
		return nil, fmt.Errorf("%w: x-tuple %q: unclaimed arena bytes", ErrWireCorrupt, name)
	}
	if err := x.validate(); err != nil {
		return nil, err
	}
	return x, nil
}

// wireReader walks a v2 encoding. Its first failure sticks: later reads
// return zero values, and callers check err once per record.
type wireReader struct {
	buf []byte
	p   int
	err error
}

func (r *wireReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at byte %d", ErrWireCorrupt, what, r.p)
	}
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.p:])
	if n <= 0 {
		r.fail("truncated or overflowing varint")
		return 0
	}
	r.p += n
	return v
}

func (r *wireReader) int() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.p:])
	if n <= 0 || int64(int(v)) != v {
		r.fail("truncated or overflowing varint")
		return 0
	}
	r.p += n
	return int(v)
}

// count reads a length or count each unit of which takes at least unit
// bytes of the input, and fails when what remains cannot hold it — before
// the caller sizes anything by it.
func (r *wireReader) count(unit int) int {
	v := r.uvarint()
	if r.err == nil && v > uint64(len(r.buf)-r.p)/uint64(unit) {
		r.fail("count exceeds the remaining input")
		return 0
	}
	return int(v)
}

func (r *wireReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.buf)-r.p {
		r.fail("truncated")
		return nil
	}
	b := r.buf[r.p : r.p+n]
	r.p += n
	return b
}

func (r *wireReader) float() float64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}
