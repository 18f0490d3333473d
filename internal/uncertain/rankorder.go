package uncertain

import (
	"iter"
	"slices"

	"github.com/probdb/topkclean/internal/cowvec"
)

// The global rank order is one cowvec.Seq of every alternative, nulls
// included, in the total order ranksAbove defines (DESIGN.md, "Rank
// order"). Each tuple's home is the writer-epoch header of its leaf (see
// snapshot.go), from which Tuple.Index computes its position; readers
// (Cursor, AtRank, Sorted) navigate their own epoch's nodes.

// newRankOrder returns the rank order holding the n tuples order yields,
// in that order.
func newRankOrder(n int, order iter.Seq[*Tuple]) cowvec.Seq[*Tuple] {
	ts := slices.AppendSeq(make([]*Tuple, 0, n), order)
	return cowvec.Collect(ts, func(t *Tuple, h *cowvec.Home[*Tuple]) { t.home = h })
}

// AtRank returns the tuple at global rank position pos (0 = highest rank),
// or nil when pos is out of range: one descent, safe on live databases
// (not concurrently with mutations) and snapshots alike.
func (db *Database) AtRank(pos int) *Tuple {
	if pos < 0 || pos >= db.rs.Len() {
		return nil
	}
	return db.rs.At(pos)
}

// Cursor iterates one database view's global rank order, highest first.
// Obtain one with CursorAt; mutations on its database invalidate it (pin a
// Snapshot to iterate concurrently with a writer, as with any read).
type Cursor struct {
	run []*Tuple // the current leaf, or what is left of it
	i   int      // the next tuple's offset in run
	c   cowvec.Cursor[*Tuple]
}

// CursorAt returns a cursor positioned at global rank position pos: one
// descent to place it, then O(1) per step with no allocation. Positions at
// or beyond NumTuples() yield an exhausted cursor.
func (db *Database) CursorAt(pos int) (c Cursor) { c.run, c.c = db.rs.Cursor(pos); return c }

// Next returns the tuple at the cursor's position and advances past it,
// or nil when the order is exhausted.
func (c *Cursor) Next() *Tuple {
	if c.i == len(c.run) {
		return c.turn()
	}
	c.i++
	return c.run[c.i-1]
}

// turn moves the cursor to its next leaf and returns the leaf's first
// tuple; out of line, it leaves Next small enough to inline.
func (c *Cursor) turn() *Tuple {
	if c.run, c.i = c.c.Next(), 0; c.run == nil {
		return nil
	}
	return c.Next()
}

// Ranked yields the tuples from global rank position pos down, each with
// its x-tuple's group index: the (alternative, x-tuple) pairs a rank scan
// consumes. It walks a cursor, so it costs what CursorAt and Next cost.
func (db *Database) Ranked(pos int) iter.Seq2[*Tuple, int] {
	return func(yield func(*Tuple, int) bool) {
		cur := db.CursorAt(pos)
		for t := cur.Next(); t != nil; t = cur.Next() {
			if !yield(t, t.Group) {
				return
			}
		}
	}
}

// errSpine wraps a structural rank-order violation for Validate.
type errSpine string

func (e errSpine) Error() string { return "uncertain: rank order corrupt: " + string(e) }
