package uncertain

import "github.com/probdb/topkclean/internal/numeric"

// XTuple is one uncertain entity: a set of mutually exclusive alternatives
// (tau_l in the paper). After Build, an x-tuple whose alternatives sum to
// less than 1 additionally carries a materialized null alternative, so the
// alternatives always sum to 1 (up to a tiny tolerance documented below).
type XTuple struct {
	Name   string
	Tuples []*Tuple // alternatives in insertion order; null (if any) last

	// uid is the x-tuple's stable identity: assigned once when the x-tuple
	// enters a database (Build or a mutation-time insert) and preserved by
	// copy-on-write cloning and Clone. Two XTuple objects with the same uid
	// are the same logical x-tuple observed in different epochs; see Is.
	uid uint64

	// stagedOrds holds explicit tie-break stamps supplied by AddXTupleSeq,
	// one per staged tuple; Build consumes and clears them. Nil for groups
	// staged with AddXTuple (Build assigns staging-order stamps).
	stagedOrds []int
}

// Is reports whether x and y are the same logical x-tuple, possibly
// observed through different snapshots: mutations clone x-tuples
// copy-on-write, so pointer identity breaks across epochs while the
// stable identity survives. Consumers that carry per-x-tuple state across
// database versions (the PSR scan checkpoints) match on Is rather than
// pointer equality.
func (x *XTuple) Is(y *XTuple) bool {
	if x == y {
		return true
	}
	return x != nil && y != nil && x.uid != 0 && x.uid == y.uid
}

// massTolerance absorbs floating-point drift in user-supplied probabilities.
// A deficit below this threshold is ignored (no null tuple is created); an
// excess above it is a validation error.
const massTolerance = 1e-9

// nullThreshold is the smallest mass deficit for which a null alternative is
// materialized. Deficits between nullThreshold and massTolerance are
// rounding noise, not modeled absence.
const nullThreshold = 1e-12

// nullID is the ID of the null alternative materialized for x-tuple name.
func nullID(name string) string { return "null:" + name }

// RealTuples returns the alternatives excluding any materialized null.
func (x *XTuple) RealTuples() []*Tuple {
	ts := x.Tuples
	if n := len(ts); n > 0 && ts[n-1].Null {
		return ts[:n-1]
	}
	return ts
}

// NullTuple returns the materialized null alternative, or nil if the
// x-tuple's real alternatives already sum to 1.
func (x *XTuple) NullTuple() *Tuple {
	if n := len(x.Tuples); n > 0 && x.Tuples[n-1].Null {
		return x.Tuples[n-1]
	}
	return nil
}

// RealMass returns s_l, the total existential probability of the real
// alternatives.
func (x *XTuple) RealMass() float64 {
	var k numeric.Kahan
	for _, t := range x.RealTuples() {
		k.Add(t.Prob)
	}
	return k.Sum()
}

// Certain reports whether the x-tuple has a single alternative with
// probability 1, i.e. no remaining uncertainty (the state pclean produces
// on success).
func (x *XTuple) Certain() bool {
	return len(x.Tuples) == 1 && x.Tuples[0].Prob >= 1-massTolerance
}

// Absent reports whether the x-tuple is known to contribute no real tuple:
// its only alternative is a null with probability 1 (the state produced by
// cleaning an entity and learning it does not exist).
func (x *XTuple) Absent() bool {
	return len(x.Tuples) == 1 && x.Tuples[0].Null
}

func (x *XTuple) validate() error {
	// A group with no alternatives yet is legal only as an absent group
	// added with AddAbsentXTuple; Build materializes its probability-1
	// null. AddXTuple rejects empty input separately.
	var mass numeric.Kahan
	for _, t := range x.Tuples {
		if !(t.Prob > 0) || t.Prob > 1 {
			return wrapGroup(ErrProbOutOfRange, x.Name)
		}
		mass.Add(t.Prob)
	}
	if mass.Sum() > 1+massTolerance {
		return wrapGroup(ErrMassExceedsOne, x.Name)
	}
	return nil
}
