package uncertain

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// This file is the mutation API for built databases. Build fixes the global
// rank order once; real serving workloads then mutate continuously — new
// sensor readings arrive (InsertXTuple), entities disappear (DeleteXTuple),
// distributions are revised (Reweight), and cleaning operations resolve an
// x-tuple to one alternative (Collapse). Each mutation maintains the
// rank order incrementally (an ordered splice of one leaf, no re-sort; see
// rankorder.go), bumps the version counter that
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
// write (cowGroup); the rank order and the x-tuple vector copy each node a
// published epoch shares before they write it (cowvec).

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
	deficit, err := CheckInsert(name, tuples, db.rank, db.idHeld)
	if err != nil {
		return 0, err
	}
	gi := db.groups.Len()
	x := &XTuple{Name: name, Tuples: newTuples(tuples)}
	for _, t := range x.Tuples {
		t.Group = gi
		t.Score = db.rank(t.Attrs)
	}
	if deficit > nullThreshold {
		x.Tuples = append(x.Tuples, &Tuple{ID: nullID(name), Prob: deficit, Group: gi, Null: true})
	}
	// All checks passed; commit. Ord stamps continue past the build-time
	// ones so score ties keep breaking by arrival order; explicit stamps
	// (seqs) advance the counter past themselves instead.
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

// CheckInsert is the whole validation of an insert of tuples under name,
// in the insert's order and with its errors: no alternatives, a NaN
// score, a probability outside (0, 1] or a total mass above one, then an
// ID repeated within the call or one held reports taken — the null the
// insert materializes included. It returns the mass deficit (see
// checkMass). The insert core runs it against the database's ID index;
// the shard router runs it against every shard's index before it stamps
// or touches a shard, so a sharded insert fails exactly as the unsharded
// one would.
func CheckInsert(name string, tuples []Tuple, rank RankFunc, held func(id string) bool) (deficit float64, err error) {
	if len(tuples) == 0 {
		return 0, wrapGroup(ErrEmptyXTuple, name)
	}
	for i := range tuples {
		if math.IsNaN(rank(tuples[i].Attrs)) {
			return 0, fmt.Errorf("tuple %q: %w", tuples[i].ID, ErrBadScore)
		}
	}
	if deficit, err = checkMass(name, len(tuples), func(i int) float64 { return tuples[i].Prob }); err != nil {
		return 0, err
	}
	seen := make(map[string]bool, len(tuples)+1)
	dup := func(id string) error {
		if seen[id] || held(id) {
			return fmt.Errorf("tuple %q: %w", id, ErrDuplicateID)
		}
		seen[id] = true
		return nil
	}
	for i := range tuples {
		if err := dup(tuples[i].ID); err != nil {
			return 0, err
		}
	}
	if deficit > nullThreshold {
		if err := dup(nullID(name)); err != nil {
			return 0, err
		}
	}
	return deficit, nil
}

// idHeld reports whether a live tuple holds id, through the writer's ID
// index.
func (db *Database) idHeld(id string) bool { return db.ids.get(id) != nil }

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
	deficit, err := CheckReweight(x, probs, db.idHeld)
	if err != nil {
		return 0, err
	}
	// All checks passed; commit onto a private clone of the x-tuple, so
	// published epochs keep the old probabilities.
	x = db.cowGroup(l)
	real := x.RealTuples()
	// The watermark is the highest-ranked alternative whose probability or
	// presence actually changes; alternatives keeping their probability
	// leave the scan state at their position untouched.
	watermark := math.MaxInt
	for i, t := range real {
		if probs[i] != t.Prob {
			if at := t.Index(); at < watermark {
				watermark = at
			}
			t.Prob = probs[i]
		}
	}
	null := x.NullTuple()
	switch {
	case deficit > nullThreshold && null != nil:
		if null.Prob != deficit {
			if at := null.Index(); at < watermark {
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

// CheckReweight is the whole validation of a reweight of x to probs: one
// probability per real alternative, each in (0, 1] and their total at
// most one, then — when x has no null and the new deficit needs one — the
// null's ID must be free in held. It returns the mass deficit the null
// alternative carries afterwards (see checkMass). The reweight core runs
// it against the database's ID index; the shard router runs it against
// every shard's index before it touches the owning shard.
func CheckReweight(x *XTuple, probs []float64, held func(id string) bool) (deficit float64, err error) {
	if n := len(x.RealTuples()); len(probs) != n {
		return 0, fmt.Errorf("x-tuple %q: %d probabilities for %d real alternatives: %w",
			x.Name, len(probs), n, ErrBadReweight)
	}
	if deficit, err = checkMass(x.Name, len(probs), func(i int) float64 { return probs[i] }); err != nil {
		return 0, err
	}
	if deficit > nullThreshold && x.NullTuple() == nil && held(nullID(x.Name)) {
		return 0, fmt.Errorf("tuple %q: %w", nullID(x.Name), ErrDuplicateID)
	}
	return deficit, nil
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
	x = db.cowGroup(l)
	chosen := x.Tuples[choice]
	watermark := math.MaxInt
	if chosen.Prob != 1 {
		watermark = chosen.Index()
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

// insertRanked places t into the rank order (and the ID index) at the
// position the total order ranksAbove defines, found by a descent that
// compares t with each node's first tuple, and returns that position.
func (db *Database) insertRanked(t *Tuple) int {
	pos := db.rs.Search(func(u *Tuple) bool { return ranksAbove(t, u) })
	db.rs.InsertAt(pos, t)
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
// the first removed tuple (NumTuples() when drop is empty). Each position
// comes from the tuple's home (Tuple.Index), and the tuples leave from the
// lowest-ranked up, so the positions still to remove stay valid.
func (db *Database) removeSorted(drop []*Tuple) int {
	pos := make([]int, len(drop))
	for i, t := range drop {
		pos[i] = t.Index()
		db.ids.del(t.ID)
	}
	slices.Sort(pos)
	for i := len(pos) - 1; i >= 0; i-- {
		db.rs.DeleteAt(pos[i])
	}
	if len(pos) == 0 {
		return db.rs.Len()
	}
	return pos[0]
}

// finishMutation commits one batch (a standalone mutation is a one-op
// batch): it bumps the version, records the dirty-rank watermark in the
// log DirtySince answers from, and publishes the new state as an epoch for
// snapshot readers (the single atomic store that makes the whole batch
// visible at once). The rank order and nReal are maintained incrementally
// by the mutation primitives themselves, so no array-wide fixup happens
// here.
func (db *Database) finishMutation(watermark int) {
	if watermark < 0 {
		watermark = 0
	}
	if watermark > db.rs.Len() {
		watermark = db.rs.Len()
	}
	db.version++
	// The log is append-only in memory: trimming moves the window's start,
	// and append writes past every published epoch's length (reallocating
	// once the backing array is full), so no epoch's marks are ever
	// written and the log needs no copy.
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
