package uncertain

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
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
// The format is versioned ("topkclean-wire/v1") and append-only: readers
// must reject unknown format strings, and new fields may only be added
// with omitempty semantics. Floats survive exactly: encoding/json renders
// float64 with the shortest representation that round-trips to the same
// bits.

// WireFormat identifies version 1 of the wire encoding.
const WireFormat = "topkclean-wire/v1"

// ErrWireFormat is returned by DecodeWire for bytes that do not carry a
// known wire format.
var ErrWireFormat = errors.New("uncertain: unknown wire format")

// ErrWireOrder is returned by DecodeWire when the decoded rank order is
// inconsistent with the scores the supplied ranking function produces —
// almost always a database encoded under a different ranking function.
var ErrWireOrder = errors.New("uncertain: decoded rank order inconsistent (wrong ranking function?)")

type wireDB struct {
	Format  string      `json:"format"`
	Version uint64      `json:"version"`
	NextOrd int         `json:"next_ord"`
	NextUID uint64      `json:"next_uid"`
	XTuples []wireGroup `json:"xtuples"`
}

type wireGroup struct {
	Name   string      `json:"name"`
	UID    uint64      `json:"uid"`
	Tuples []wireTuple `json:"tuples"`
}

type wireTuple struct {
	ID    string    `json:"id"`
	Attrs []float64 `json:"attrs,omitempty"`
	Prob  float64   `json:"prob"`
	Ord   int       `json:"ord"`
	Pos   int       `json:"pos"` // position in the global rank order
	Null  bool      `json:"null,omitempty"`
}

// EncodeWire serializes a built database (or a snapshot of one) into the
// stable wire form. Rank positions are derived by walking the epoch's own
// frozen chunks, not from Tuple.Index (a writer-epoch field), so encoding
// a pinned Snapshot is safe while the live database keeps mutating — which
// is how the store checkpoints. Encoding a live database directly must not
// run concurrently with mutations, like any other read of it.
func EncodeWire(db *Database) ([]byte, error) {
	if !db.built {
		return nil, ErrNotBuilt
	}
	pos := make(map[*Tuple]int, db.rs.n)
	i := 0
	for _, c := range db.rs.chunks {
		for _, t := range c.tuples {
			pos[t] = i
			i++
		}
	}
	doc := wireDB{
		Format:  WireFormat,
		Version: db.version,
		NextOrd: db.nextOrd,
		NextUID: db.nextUID,
		XTuples: make([]wireGroup, db.groups.Len()),
	}
	for gi, x := range db.groups.All() {
		wg := wireGroup{Name: x.Name, UID: x.uid, Tuples: make([]wireTuple, len(x.Tuples))}
		for ti, t := range x.Tuples {
			wg.Tuples[ti] = wireTuple{ID: t.ID, Attrs: t.Attrs, Prob: t.Prob, Ord: t.ord, Pos: pos[t], Null: t.Null}
		}
		doc.XTuples[gi] = wg
	}
	return json.Marshal(doc)
}

// DecodeWire reconstructs a built database from EncodeWire bytes. rank
// must be the ranking function the database was built with (nil means
// ByFirstAttr, as in Build); scores are recomputed from it and the
// resulting rank order is validated. The returned database is live
// (mutable) and carries the encoded version counter, so consumers keyed by
// version — and the watermark log going forward — behave exactly as they
// would on the original instance.
func DecodeWire(data []byte, rank RankFunc) (*Database, error) {
	var doc wireDB
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("uncertain: wire decode: %w", err)
	}
	if doc.Format != WireFormat {
		return nil, fmt.Errorf("%w: %q", ErrWireFormat, doc.Format)
	}
	if len(doc.XTuples) == 0 {
		return nil, ErrNoGroups
	}
	if rank == nil {
		rank = ByFirstAttr
	}
	db := &Database{
		rank:    rank,
		built:   true,
		version: doc.Version,
		nextOrd: doc.NextOrd,
		nextUID: doc.NextUID,
	}
	total := 0
	for _, wg := range doc.XTuples {
		total += len(wg.Tuples)
	}
	sorted := make([]*Tuple, total)
	db.ids = newIDIndex(total)
	var scratch []Tuple
	for gi, wg := range doc.XTuples {
		if len(wg.Tuples) == 0 {
			return nil, wrapGroup(ErrEmptyXTuple, wg.Name)
		}
		scratch = scratch[:0]
		for _, wt := range wg.Tuples {
			t := Tuple{ID: wt.ID, Prob: wt.Prob, Group: gi, Null: wt.Null, ord: wt.Ord}
			if !wt.Null {
				t.Attrs = wt.Attrs
			}
			scratch = append(scratch, t)
		}
		x := &XTuple{Name: wg.Name, uid: wg.UID, Tuples: newTuples(scratch)}
		for ti, t := range x.Tuples {
			if !t.Null {
				t.Score = rank(t.Attrs)
				if math.IsNaN(t.Score) {
					return nil, fmt.Errorf("tuple %q: %w", t.ID, ErrBadScore)
				}
				db.nReal++
			}
			if db.ids.put(t) {
				return nil, fmt.Errorf("tuple %q: %w", t.ID, ErrDuplicateID)
			}
			pos := wg.Tuples[ti].Pos
			if pos < 0 || pos >= total || sorted[pos] != nil {
				return nil, fmt.Errorf("uncertain: wire decode: tuple %q: rank position %d invalid or duplicated", t.ID, pos)
			}
			sorted[pos] = t
		}
		if err := x.validate(); err != nil {
			return nil, err
		}
		db.groups.Append(x)
	}
	// The rank order is rebuilt from the persisted positions (chunked
	// afresh — chunk boundaries are an in-memory detail, not wire state),
	// then verified against the recomputed scores: Validate walks adjacent
	// pairs under ranksAbove, so a database encoded under a different
	// ranking function fails here instead of being served with a silently
	// wrong order.
	db.rs = newRankStore(len(sorted), slices.Values(sorted))
	if err := db.Validate(); err != nil {
		return nil, errors.Join(ErrWireOrder, err)
	}
	db.publish()
	return db, nil
}
