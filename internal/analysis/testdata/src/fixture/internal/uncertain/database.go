// Package uncertain is a miniature of the real internal/uncertain: just
// enough structure for the lint fixtures to exercise frozenwrite and
// idxread against the same type names, file names, and package layout the
// suite's DefaultConfig is wired to.
package uncertain

import "errors"

// ErrGap mirrors the real replication sentinel so senterr has a
// cross-package target.
var ErrGap = errors.New("journal gap")

// Tuple mirrors the real tuple: exported reader-visible fields plus the
// unexported writer-epoch chunk back-pointers (home/idx).
type Tuple struct {
	ID   string
	Prob float64
	home int
	idx  int
}

// XTuple groups alternative tuples.
type XTuple struct {
	Name   string
	Tuples []*Tuple
}

// Database holds the ranked tuples.
type Database struct {
	n      int
	sorted []*Tuple
}

// Insert is a writer-file mutation: every field write and idx touch in
// this file is whitelisted.
func (db *Database) Insert(t *Tuple) {
	t.home = 0
	t.idx = len(db.sorted)
	db.sorted = append(db.sorted, t)
	db.n++
}

// EncodeWire stands in for the real wire encoder; DefaultConfig lists it
// as a blocking function, so the lockscope fixture calls it under a
// registry lock.
func EncodeWire(db *Database) []byte {
	return make([]byte, db.n)
}

// AppendWire stands in for the real appending wire encoder, listed beside
// EncodeWire.
func AppendWire(dst []byte, db *Database) []byte {
	return append(dst, make([]byte, db.n)...)
}
