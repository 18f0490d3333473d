package uncertain

import "errors"

// This file is the explicit tie-break API used by the sharded engine
// (internal/shard). Score ties in the total rank order break by the ord
// stamp Build and InsertXTuple assign in arrival order. A shard database
// holds a subset of a logically global database, so its locally assigned
// stamps would order tied tuples by *shard-local* arrival, which is not
// comparable across shards. AddXTupleSeq and Batch.InsertXTupleSeq let
// the caller supply the stamps instead (the shard layer stamps every real
// alternative with a global sequence number once, at its first insert), so
// a shard's local rank order is exactly the global order restricted to the
// shard, and the coordinator can merge shards by (score, Tuple.Stamp) —
// the invariant its bit-identical merge rests on.
//
// Stamps share the ord counter's space: Build and insert advance the
// sequential counter past the largest explicit stamp they see, so mixed
// use keeps later implicit stamps unique. Callers are responsible for
// keeping explicit stamps unique among tuples that can tie on score (the
// shard layer's global sequence trivially is). The shard router's
// validation is not here: it runs the insert and reweight cores' own
// checks (CheckInsert, CheckReweight in mutate.go) against every shard's
// ID index.

// ErrBadSeq is returned by the *Seq staging and mutation variants when the
// number of tie-break stamps does not match the number of tuples.
var ErrBadSeq = errors.New("uncertain: need one tie-break stamp per tuple")

// AddXTupleSeq is AddXTuple with explicit tie-break stamps: seqs[i] becomes
// the ord stamp of tuples[i] at Build time, instead of the staging-order
// stamp Build would assign.
func (db *Database) AddXTupleSeq(name string, seqs []int, tuples ...Tuple) error {
	if len(seqs) != len(tuples) {
		return wrapGroup(ErrBadSeq, name)
	}
	if err := db.AddXTuple(name, tuples...); err != nil {
		return err
	}
	db.groups.At(db.groups.Len() - 1).stagedOrds = append([]int(nil), seqs...)
	return nil
}

// InsertXTupleSeq is Batch.InsertXTuple with explicit tie-break stamps,
// one per supplied tuple (the materialized null, if any, takes no stamp —
// nulls order by group index, not by ord).
func (b *Batch) InsertXTupleSeq(name string, seqs []int, tuples ...Tuple) error {
	if len(seqs) != len(tuples) {
		return wrapGroup(ErrBadSeq, name)
	}
	wm, err := b.db.insertXTuple(name, tuples, seqs)
	return b.note(wm, err)
}
