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
// shard layer's global sequence trivially is).

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

// CheckAlternatives validates caller-supplied alternatives exactly as the
// insert path does — every probability in (0, 1], total mass at most 1
// within the insert tolerance — returning the identical wrapped errors.
// The shard layer uses it to reject an invalid insert, with the unsharded
// error, before stamping or touching any shard.
func CheckAlternatives(name string, tuples []Tuple) error {
	x := XTuple{Name: name, Tuples: make([]*Tuple, len(tuples))}
	for i := range tuples {
		x.Tuples[i] = &tuples[i]
	}
	return x.validate()
}

// NullDeficit returns the mass deficit 1 - sum(probs) (Kahan-summed in
// tuple order, exactly as RealMass computes it) and whether the insert
// path would materialize a null alternative for it. The shard router uses
// it to predict the null's ID for its cluster-wide duplicate check.
func NullDeficit(tuples []Tuple) (float64, bool) {
	x := XTuple{Tuples: make([]*Tuple, len(tuples))}
	for i := range tuples {
		x.Tuples[i] = &tuples[i]
	}
	d := 1 - x.RealMass()
	return d, d > nullThreshold
}

// CheckReweight validates probs as a reweight of x exactly as the reweight
// core does, returning the identical wrapped errors, and reports the ID of
// the null alternative the reweight would materialize ("" when x keeps
// its null or needs none). The shard router uses it to run the
// cluster-wide duplicate-ID check on that ID before touching a shard.
func CheckReweight(x *XTuple, probs []float64) (newNull string, err error) {
	_, newNull, err = checkReweight(x, probs)
	return newNull, err
}
