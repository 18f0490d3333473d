package uncertain

import (
	"errors"
	"fmt"
	"math"

	"github.com/probdb/topkclean/internal/numeric"
)

// This file is the mutation API for built databases. Build fixes the global
// rank order once; real serving workloads then mutate continuously — new
// sensor readings arrive (InsertXTuple), entities disappear (DeleteXTuple),
// distributions are revised (Reweight), and cleaning operations resolve an
// x-tuple to one alternative (Collapse). Each mutation maintains the
// chunked rank order incrementally (an ordered splice of one chunk that
// repairs rank positions in the same pass, no re-sort; see chunks.go),
// bumps the version counter that
// version-aware consumers key their memoized state by, and records a
// dirty-rank watermark — the lowest rank position the mutation may have
// changed — in the log DirtySince answers from, so those consumers can
// resume a left-to-right scan instead of recomputing it (see DESIGN.md,
// "Watermarks").
//
// Database.Batch is the only commit path: every standalone mutation below
// is a one-op batch, and each Batch method runs an unexported core that
// returns the mutation's watermark.
//
// Concurrency: mutations serialize against each other on the database's
// writer lock, and each commit publishes a new immutable epoch (see
// snapshot.go), so mutations may run concurrently with queries as long as
// the queries read through pinned snapshots (Database.Snapshot — which is
// how the Engine reads). Reading the live database directly while a
// mutation runs remains undefined; mutation cores honour snapshot
// isolation by cloning any x-tuple whose reader-visible fields they would
// write (cowGroup) and by unsharing the containers from the last published
// epoch before splicing them (unshare).

// ErrBadReweight is returned when Reweight is given the wrong number of
// probabilities for the x-tuple's real alternatives.
var ErrBadReweight = errors.New("uncertain: reweight needs one probability per real alternative")

// ErrLastGroup is returned when DeleteXTuple would leave the database empty.
var ErrLastGroup = errors.New("uncertain: cannot delete the last x-tuple")

// InsertXTuple adds a new x-tuple to a built database. Like AddXTuple, each
// Tuple's ID, Attrs, and Prob must be set and the values are copied; unlike
// AddXTuple, the alternatives are scored, a null alternative is materialized
// if needed, and every alternative is placed into the existing rank order by
// ordered insertion — no rebuild. The new x-tuple gets index NumGroups()-1.
// On any validation error the database is unchanged. It commits as a
// one-op Batch.
func (db *Database) InsertXTuple(name string, tuples ...Tuple) error {
	return db.Batch(func(b *Batch) error { return b.InsertXTuple(name, tuples...) })
}

// insertXTuple is the insert core. seqs, when non-nil, supplies explicit
// tie-break stamps (one per tuple; see seq.go) instead of arrival-order
// stamps.
func (db *Database) insertXTuple(name string, tuples []Tuple, seqs []int) (int, error) {
	if len(tuples) == 0 {
		return 0, wrapGroup(ErrEmptyXTuple, name)
	}
	gi := db.groups.Len()
	x := &XTuple{Name: name, Tuples: newTuples(tuples)}
	for _, t := range x.Tuples {
		t.Group = gi
		t.Score = db.rank(t.Attrs)
		if math.IsNaN(t.Score) {
			return 0, fmt.Errorf("tuple %q: %w", t.ID, ErrBadScore)
		}
	}
	if err := x.validate(); err != nil {
		return 0, err
	}
	if deficit := 1 - x.RealMass(); deficit > nullThreshold {
		x.Tuples = append(x.Tuples, &Tuple{ID: nullID(name), Prob: deficit, Group: gi, Null: true})
	}
	seen := make(map[string]bool, len(x.Tuples))
	for _, t := range x.Tuples {
		// Check within the call too (including against the materialized
		// null), not just against the existing database.
		if seen[t.ID] || db.TupleByID(t.ID) != nil {
			return 0, fmt.Errorf("tuple %q: %w", t.ID, ErrDuplicateID)
		}
		seen[t.ID] = true
	}
	// All checks passed; commit. Ord stamps continue past the build-time
	// ones so score ties keep breaking by arrival order; explicit stamps
	// (seqs) advance the counter past themselves instead.
	db.unshare()
	x.uid = db.newUID()
	db.markPrivate(x)
	for i, t := range x.Tuples {
		if !t.Null {
			if seqs != nil {
				t.ord = seqs[i]
				if t.ord >= db.nextOrd {
					db.nextOrd = t.ord + 1
				}
			} else {
				t.ord = db.nextOrd
				db.nextOrd++
			}
			db.nReal++
		}
	}
	watermark := db.insertRankedAll(x.Tuples)
	db.groups.Append(x)
	return watermark, nil
}

// InsertAbsentXTuple adds an x-tuple known to contribute no real tuple
// (AddAbsentXTuple's mutation-time counterpart): a single null alternative
// with probability 1 is placed at the bottom of the rank order. It commits
// as a one-op Batch.
func (db *Database) InsertAbsentXTuple(name string) error {
	return db.Batch(func(b *Batch) error { return b.InsertAbsentXTuple(name) })
}

func (db *Database) insertAbsentXTuple(name string) (int, error) {
	gi := db.groups.Len()
	null := &Tuple{ID: nullID(name), Prob: 1, Group: gi, Null: true}
	if db.TupleByID(null.ID) != nil {
		return 0, fmt.Errorf("tuple %q: %w", null.ID, ErrDuplicateID)
	}
	db.unshare()
	x := &XTuple{Name: name, uid: db.newUID(), Tuples: []*Tuple{null}}
	db.markPrivate(x)
	db.groups.Append(x)
	return db.insertRanked(null), nil
}

// DeleteXTuple removes x-tuple l from a built database. Subsequent x-tuples
// shift down one index (their tuples' Group fields are renumbered), which
// preserves the relative order of the remaining null alternatives, so the
// rank array only needs splicing, not re-sorting. Deleting the last
// remaining x-tuple is an error. It commits as a one-op Batch.
func (db *Database) DeleteXTuple(l int) error {
	return db.Batch(func(b *Batch) error { return b.DeleteXTuple(l) })
}

func (db *Database) deleteXTuple(l int) (int, error) {
	if l < 0 || l >= db.groups.Len() {
		return 0, fmt.Errorf("index %d of %d: %w", l, db.groups.Len(), ErrBadGroupIndex)
	}
	if db.groups.Len() == 1 {
		return 0, ErrLastGroup
	}
	db.unshare()
	drop := db.groups.At(l).Tuples
	for _, t := range drop {
		if !t.Null {
			db.nReal--
		}
	}
	db.groups.DeleteAt(l)
	if l < db.groups.Len() {
		db.pendingRenumber = true // surviving groups shift down one index
		for gi := l; gi < db.groups.Len(); gi++ {
			// Renumbering writes Group, a reader-visible field, so every
			// shifted x-tuple is cloned into the new epoch; published
			// snapshots keep the old objects with the old numbering.
			for _, t := range db.cowGroup(gi).Tuples {
				t.Group = gi
			}
		}
	}
	return db.removeSorted(drop), nil
}

// Reweight replaces the existential probabilities of x-tuple l's real
// alternatives: probs[i] applies to RealTuples()[i]. Scores are unchanged,
// so the real alternatives keep their rank positions; only the group's null
// alternative is created, updated, or removed to absorb the new mass
// deficit. On any validation error the database is unchanged. It commits
// as a one-op Batch.
func (db *Database) Reweight(l int, probs []float64) error {
	return db.Batch(func(b *Batch) error { return b.Reweight(l, probs) })
}

func (db *Database) reweight(l int, probs []float64) (int, error) {
	if l < 0 || l >= db.groups.Len() {
		return 0, fmt.Errorf("index %d of %d: %w", l, db.groups.Len(), ErrBadGroupIndex)
	}
	x := db.groups.At(l)
	deficit, newNull, err := checkReweight(x, probs)
	if err != nil {
		return 0, err
	}
	// A null this reweight materializes must not take an ID another
	// x-tuple holds.
	if newNull != "" && db.ids.get(newNull) != nil {
		return 0, fmt.Errorf("tuple %q: %w", newNull, ErrDuplicateID)
	}
	// All checks passed; commit onto a private clone of the x-tuple, so
	// published epochs keep the old probabilities.
	db.unshare()
	x = db.cowGroup(l)
	real := x.RealTuples()
	// The watermark is the highest-ranked alternative whose probability or
	// presence actually changes; alternatives keeping their probability
	// leave the scan state at their position untouched.
	watermark := math.MaxInt
	for i, t := range real {
		if probs[i] != t.Prob {
			if at := db.rankIndexOf(t); at < watermark {
				watermark = at
			}
			t.Prob = probs[i]
		}
	}
	null := x.NullTuple()
	switch {
	case deficit > nullThreshold && null != nil:
		if null.Prob != deficit {
			if at := db.rankIndexOf(null); at < watermark {
				watermark = at
			}
			null.Prob = deficit
		}
	case deficit > nullThreshold:
		null = &Tuple{ID: nullID(x.Name), Prob: deficit, Group: l, Null: true}
		x.Tuples = append(x.Tuples, null)
		if at := db.insertRanked(null); at < watermark {
			watermark = at
		}
	case null != nil:
		// Remove the null by identity, not by position: dropping
		// x.Tuples[len-1] positionally could silently drop a real
		// alternative if the "null is last" invariant ever broke, while
		// removeSorted below removes the null itself — the two must never
		// diverge (see TestNullAlternativeStaysLast).
		for i, t := range x.Tuples {
			if t == null {
				x.Tuples = append(x.Tuples[:i], x.Tuples[i+1:]...)
				break
			}
		}
		if at := db.removeSorted([]*Tuple{null}); at < watermark {
			watermark = at
		}
	}
	return watermark, nil
}

// checkReweight validates probs as the new probabilities of x's real
// alternatives. It returns the mass deficit the null alternative must
// carry afterwards and, when x has no null yet and the deficit needs one,
// the ID of the null the reweight materializes ("" otherwise).
func checkReweight(x *XTuple, probs []float64) (deficit float64, newNull string, err error) {
	if n := len(x.RealTuples()); len(probs) != n {
		return 0, "", fmt.Errorf("x-tuple %q: %d probabilities for %d real alternatives: %w",
			x.Name, len(probs), n, ErrBadReweight)
	}
	var mass numeric.Kahan
	for _, p := range probs {
		if !(p > 0) || p > 1 {
			return 0, "", wrapGroup(ErrProbOutOfRange, x.Name)
		}
		mass.Add(p)
	}
	if mass.Sum() > 1+massTolerance {
		return 0, "", wrapGroup(ErrMassExceedsOne, x.Name)
	}
	deficit = 1 - mass.Sum()
	if deficit > nullThreshold && x.NullTuple() == nil {
		newNull = nullID(x.Name)
	}
	return deficit, newNull, nil
}

// Collapse resolves x-tuple l to its alternative choice (an index into the
// x-tuple's Tuples, including the null alternative) with probability 1 —
// exactly what a successful pclean operation does (Definition 5), applied
// in place instead of via the rebuilt copy Cleaned returns. Choosing the
// null alternative leaves the x-tuple certainly absent. The chosen
// alternative keeps its identity, score, and rank position; the discarded
// alternatives are spliced out of the rank order. It commits as a one-op
// Batch.
func (db *Database) Collapse(l, choice int) error {
	return db.Batch(func(b *Batch) error { return b.Collapse(l, choice) })
}

func (db *Database) collapse(l, choice int) (int, error) {
	if l < 0 || l >= db.groups.Len() {
		return 0, fmt.Errorf("index %d of %d: %w", l, db.groups.Len(), ErrBadGroupIndex)
	}
	x := db.groups.At(l)
	if choice < 0 || choice >= len(x.Tuples) {
		return 0, fmt.Errorf("choice %d of %d: %w", choice, len(x.Tuples), ErrBadChoice)
	}
	// Commit onto a private clone: the chosen alternative's probability
	// write and the group's alternative-list rewrite must not be visible
	// to published epochs.
	db.unshare()
	x = db.cowGroup(l)
	chosen := x.Tuples[choice]
	watermark := math.MaxInt
	if chosen.Prob != 1 {
		watermark = db.rankIndexOf(chosen)
	}
	drop := make([]*Tuple, 0, len(x.Tuples)-1)
	for _, t := range x.Tuples {
		if t != chosen {
			drop = append(drop, t)
			if !t.Null {
				db.nReal--
			}
		}
	}
	chosen.Prob = 1
	x.Tuples = []*Tuple{chosen}
	if len(drop) > 0 {
		if at := db.removeSorted(drop); at < watermark {
			watermark = at
		}
	}
	return watermark, nil
}

// insertRanked places t into the chunked rank order (and the ID index) at
// the position the total order ranksAbove defines, returning that
// position. The chunk splice repairs the spine bookkeeping in the same
// pass, so rank positions stay valid at all times — including between the
// mutations of a Batch. O(C + n/C) instead of the flat array's O(n).
func (db *Database) insertRanked(t *Tuple) int {
	pos := db.rs.insert(t)
	db.ids.put(t)
	return pos
}

// insertRankedAll places several tuples into the rank order, highest rank
// first, so each lands without displacing an earlier arrival. Returns the
// lowest landing position — the insert's dirty-rank watermark (the first
// insert's position: every later tuple ranks below it and lands strictly
// after it).
func (db *Database) insertRankedAll(ts []*Tuple) int {
	if len(ts) == 1 {
		return db.insertRanked(ts[0])
	}
	// Insertion-sort a copy into rank order: alternative counts are tiny,
	// and avoiding sort.Slice keeps the hot path allocation-light.
	ins := make([]*Tuple, len(ts))
	copy(ins, ts)
	for i := 1; i < len(ins); i++ {
		for j := i; j > 0 && ranksAbove(ins[j], ins[j-1]); j-- {
			ins[j], ins[j-1] = ins[j-1], ins[j]
		}
	}
	watermark := math.MaxInt
	for _, t := range ins {
		if at := db.insertRanked(t); at < watermark {
			watermark = at
		}
	}
	return watermark
}

// removeSorted splices the given tuples out of the rank order (and the ID
// index), preserving the order of the rest, and returns the position of
// the first removed tuple (NumTuples() when drop matched nothing). The
// dropped positions come straight from the chunk back-pointers — always
// valid under the fused-repair invariant — and each touched chunk is
// compacted with one sequential pass that repairs offsets as it moves
// tuples: O(d log d + span + n/C) rather than O(n).
func (db *Database) removeSorted(drop []*Tuple) int {
	watermark := db.rs.remove(drop)
	for _, t := range drop {
		db.ids.del(t.ID)
	}
	return watermark
}

// rankIndexOf returns t's current position in the rank order, O(1) from
// the chunk back-pointers. Every mutation primitive repairs them as part
// of its own splice pass, so the answer is valid at all times — including
// between the mutations of a Batch.
func (db *Database) rankIndexOf(t *Tuple) int {
	return t.home.start + int(t.idx)
}

// finishMutation commits one batch (a standalone mutation is a one-op
// batch): it bumps the version, records the dirty-rank watermark in the
// log DirtySince answers from, and publishes the new state as an epoch for
// snapshot readers (the single atomic store that makes the whole batch
// visible at once). Rank positions and nReal are maintained incrementally
// by the mutation primitives themselves (the splice passes repair idx as
// they move tuples), so no array-wide fixup happens here.
func (db *Database) finishMutation(watermark int) {
	if watermark < 0 {
		watermark = 0
	}
	if watermark > db.rs.n {
		watermark = db.rs.n
	}
	db.version++
	// The log is append-only in memory: trimming moves the window's start,
	// and append writes past every published epoch's length (reallocating
	// once the backing array is full), so no epoch's marks are ever
	// written and the log needs no copy on unshare.
	if len(db.marks) >= maxMarks {
		db.marks = db.marks[len(db.marks)-maxMarks+1:]
	}
	db.marks = append(db.marks, versionMark{
		version:    db.version,
		watermark:  watermark,
		renumbered: db.pendingRenumber,
	})
	db.pendingRenumber = false
	db.publish()
}
