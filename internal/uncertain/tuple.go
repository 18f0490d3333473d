// Package uncertain implements the x-tuple probabilistic database model of
// the paper (Section III-A), following Agrawal et al.'s Trio model [6].
//
// A database is a set of x-tuples. Each x-tuple is a set of mutually
// exclusive tuples (alternatives); tuples from different x-tuples are
// independent. Every tuple carries an existential probability in (0, 1],
// and the probabilities within an x-tuple sum to at most 1. When they sum
// to less than 1 the model conceptually inserts a "null" tuple carrying the
// remaining probability; this package materializes that null tuple so that
// every possible world contains exactly one alternative per x-tuple, which
// is the invariant the query, quality, and cleaning algorithms rely on.
package uncertain

import (
	"fmt"

	"github.com/probdb/topkclean/internal/cowvec"
)

// Tuple is one alternative of an x-tuple: the (ID_i, x_i, v_i, e_i) record
// of Section III-A. Attrs holds the value attributes v_i consumed by the
// ranking function; Prob is the existential probability e_i.
//
// Score, Group, Null, and the rank position are assigned by Database.Build
// and must not be set by callers.
//
// A database copies the tuples it is given into its own storage: one slab
// per x-tuple, with every ID and Attrs carved from one ID string and one
// attribute array of that x-tuple (see newTuples in database.go). The
// Attrs of a tuple read from a database must not be modified in place;
// the slice is capped at its length, so appending to it copies.
type Tuple struct {
	ID    string    // unique key of the tuple (ID_i)
	Attrs []float64 // value attributes (v_i)
	Prob  float64   // existential probability (e_i), in (0, 1]

	Score float64 // ranking score f(Attrs); set by Build
	Group int     // index of the owning x-tuple (x_i); set by Build
	Null  bool    // true for the materialized null alternative

	ord int // insertion order, used to break score ties deterministically

	// home locates the tuple in the rank order (rankorder.go): the
	// header of the leaf that holds it, shared by the leaf's clones in
	// every epoch. It is a writer-epoch field, moved in place on tuples
	// shared with older snapshots when a split or merge moves the tuple
	// (see snapshot.go).
	home *cowvec.Home[*Tuple]
}

// Index returns the tuple's position in the database's rank order, where 0
// is the highest-ranked tuple. It is only meaningful after Database.Build,
// and it returns -1 for a tuple that a later commit replaced in the writer
// with a clone (a reweight, say): the tuple still names its leaf's header,
// but the writer's copy of that leaf holds the clone instead.
//
// Index reflects the *newest* epoch: it reads the tuple's leaf header,
// which mutations update in place, including on tuples shared with older
// snapshots, so it must not be read concurrently with mutations and is not
// part of a snapshot's frozen state. It scans the tuple's leaf (at most
// cowvec.Width tuples) and adds the counts above it. Code reading through
// a pinned snapshot derives positions from the snapshot's iteration order
// instead (answers additionally carry answer-time Rank fields for exactly
// this reason).
func (t *Tuple) Index() int {
	if t.home == nil {
		return 0 // not yet placed in a rank order (pre-Build staging)
	}
	return t.home.Index(t)
}

// Stamp returns the tuple's tie-break stamp: the arrival order Build and
// insert assign, or the explicit stamp of the *Seq variants (seq.go).
// Real tuples with equal scores rank by ascending stamp.
func (t *Tuple) Stamp() int { return t.ord }

// String renders the tuple for logs and examples.
func (t *Tuple) String() string {
	if t.Null {
		return fmt.Sprintf("%s(null, e=%.4g)", t.ID, t.Prob)
	}
	return fmt.Sprintf("%s(score=%.4g, e=%.4g)", t.ID, t.Score, t.Prob)
}

// ranksAbove reports whether a is ranked strictly higher than b under the
// paper's total order: real tuples beat null tuples; higher score beats
// lower score; ties break by insertion order (the paper's synthetic
// workload ranks the smaller index higher); null tuples order by x-tuple.
func ranksAbove(a, b *Tuple) bool {
	if a.Null != b.Null {
		return b.Null
	}
	if a.Null {
		return a.Group < b.Group
	}
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ord < b.ord
}
