package uncertain

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
)

// wireFormatV1 identifies the first wire encoding: one JSON document with
// exact-float numbers (encoding/json renders float64 with the shortest
// representation that round-trips to the same bits). Nothing writes it any
// more; DecodeWire still reads it, so stores and checkpoints written before
// topkclean-wire/v2 keep recovering.
const wireFormatV1 = "topkclean-wire/v1"

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

// decodeWireV1 is DecodeWire for a topkclean-wire/v1 JSON document.
func decodeWireV1(data []byte, rank RankFunc) (*Database, error) {
	var doc wireDB
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrWireCorrupt, err)
	}
	if doc.Format != wireFormatV1 {
		return nil, fmt.Errorf("%w: %q", ErrWireFormat, doc.Format)
	}
	if len(doc.XTuples) == 0 {
		return nil, ErrNoGroups
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
		for i, wt := range wg.Tuples {
			if wt.Null && i != len(wg.Tuples)-1 {
				return nil, fmt.Errorf("%w: x-tuple %q: null alternative not last", ErrWireCorrupt, wg.Name)
			}
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
				return nil, fmt.Errorf("%w: tuple %q: rank position %d invalid or duplicated", ErrWireCorrupt, t.ID, pos)
			}
			sorted[pos] = t
		}
		if err := x.validate(); err != nil {
			return nil, err
		}
		db.groups.Append(x)
	}
	// The rank order is rebuilt from the persisted positions (its leaves
	// laid out afresh — they are an in-memory detail, not wire state),
	// then verified against the recomputed scores: Validate walks adjacent
	// pairs under ranksAbove, so a database encoded under a different
	// ranking function fails here instead of being served with a silently
	// wrong order.
	db.rs = newRankOrder(len(sorted), slices.Values(sorted))
	if err := db.Validate(); err != nil {
		return nil, errors.Join(ErrWireOrder, err)
	}
	db.publish()
	return db, nil
}
