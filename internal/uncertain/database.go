package uncertain

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/probdb/topkclean/internal/cowvec"
)

// Database is an x-tuple probabilistic database D. Construct one with New,
// add x-tuples with AddXTuple, and finalize with Build, which validates the
// data, scores tuples with the ranking function, materializes null
// alternatives, and fixes the global rank order that all algorithms assume
// ("tuples in D are arranged in descending order of ranks", Section IV).
type Database struct {
	groups  cowvec.Vec[*XTuple] // x-tuples by group index, copy-on-write per commit
	rank    RankFunc
	rs      rankStore // all alternatives (incl. nulls) in descending rank order; see chunks.go
	built   bool
	nReal   int
	version uint64            // bumped by Build and every mutation; see Version
	nextOrd int               // next insertion-order stamp for mutation-time inserts
	nextUID uint64            // next stable x-tuple identity; see newUID
	marks   []versionMark     // per-mutation dirty-rank watermarks; see DirtySince
	byID    map[string]*Tuple // ID index over sorted; maintained by insertRanked/removeSorted

	// pendingRenumber is set by a mutation core that shifted surviving
	// group indices and folded into the next versionMark by finishMutation.
	pendingRenumber bool

	// Snapshot isolation (see snapshot.go). snap is the current published
	// epoch: an immutable frozen view readers pin with Snapshot. wmu
	// serializes writers (Batch, the only commit path, and Clone take it);
	// readers never do. shared marks the containers as referenced by the
	// latest epoch, so the next mutation copies them first (unshare), and
	// cowed tracks the x-tuples already cloned in the current unpublished
	// epoch. frozen marks a snapshot view itself: reads work, mutations
	// fail with ErrFrozenSnapshot, and origin points back at the live
	// database the snapshot was taken from.
	snap   atomic.Pointer[Database]
	wmu    sync.Mutex
	shared bool
	cowed  map[*XTuple]bool
	frozen bool
	origin *Database
}

// versionMark records, for one committed mutation (or batch of mutations),
// the version it produced and the lowest rank position whose scan-relevant
// state — tuple identity, probability, or rank order — the mutation may
// have changed. Positions strictly below the watermark are bit-identical
// between the two versions. renumbered marks commits that shifted
// surviving x-tuple indices (a delete of a non-trailing group), which
// consumers that cache per-group state (the engine's group-gain reuse)
// must know about.
type versionMark struct {
	version    uint64
	watermark  int
	renumbered bool
}

// maxMarks bounds the watermark log. A consumer asking DirtySince about a
// version that has fallen off the log gets ok=false and must recompute
// from scratch, so the cap only trades incrementality for memory; 128
// mutations of history is far more than any engine keeps a single
// memoized entry across.
const maxMarks = 128

// New returns an empty database.
func New() *Database {
	return &Database{}
}

// AddXTuple appends a new x-tuple with the given alternatives. Each Tuple's
// ID, Attrs, and Prob must be set; everything else is assigned by Build.
// AddXTuple copies the tuple values, so the caller's slice can be reused.
func (db *Database) AddXTuple(name string, tuples ...Tuple) error {
	if db.built {
		return ErrAlreadyBuilt
	}
	if len(tuples) == 0 {
		return wrapGroup(ErrEmptyXTuple, name)
	}
	x := &XTuple{Name: name, Tuples: make([]*Tuple, len(tuples))}
	// One backing array for the copies: a database holds tens of thousands
	// of alternatives, and keeping them in per-x-tuple slabs rather than
	// individual heap objects keeps the GC's mark phase (whose write
	// barriers tax the mutation splice passes) cheap.
	backing := make([]Tuple, len(tuples))
	for i := range tuples {
		backing[i] = tuples[i] // copy
		backing[i].Attrs = append([]float64(nil), tuples[i].Attrs...)
		x.Tuples[i] = &backing[i]
	}
	if err := x.validate(); err != nil {
		return err
	}
	db.groups.Append(x)
	return nil
}

// AddAbsentXTuple appends an x-tuple known to contribute no real tuple to
// any world: Build gives it a single null alternative with probability 1.
// This is the state a cleaning operation produces when the cleaned entity
// turns out not to exist (e.g. a sensor confirms it has no reading).
// Keeping the group, rather than dropping it, preserves the x-tuple count
// and the identity of pw-results across cleaning, which the expected-
// improvement analysis (Theorem 2) relies on.
func (db *Database) AddAbsentXTuple(name string) error {
	if db.built {
		return ErrAlreadyBuilt
	}
	db.groups.Append(&XTuple{Name: name})
	return nil
}

// Build validates the database, scores every tuple with rank, materializes
// null alternatives, and sorts all alternatives into the global rank order.
// After Build the staging API (AddXTuple, AddAbsentXTuple) is closed; change
// a built database with the mutation API (InsertXTuple, DeleteXTuple,
// Reweight, Collapse), which maintains the rank order incrementally, or
// derive modified copies with Clone or Cleaned.
func (db *Database) Build(rank RankFunc) error {
	if db.built {
		return ErrAlreadyBuilt
	}
	if db.groups.Len() == 0 {
		return ErrNoGroups
	}
	if rank == nil {
		rank = ByFirstAttr
	}
	seen := make(map[string]bool)
	ord := 0
	total := 0
	for gi, x := range db.groups.All() {
		if err := x.validate(); err != nil {
			return err
		}
		for ti, t := range x.Tuples {
			if seen[t.ID] {
				return fmt.Errorf("tuple %q: %w", t.ID, ErrDuplicateID)
			}
			seen[t.ID] = true
			t.Group = gi
			t.Score = rank(t.Attrs)
			if math.IsNaN(t.Score) {
				// NaN compares false with everything and would silently
				// corrupt the total rank order every algorithm relies on.
				return fmt.Errorf("tuple %q: %w", t.ID, ErrBadScore)
			}
			if x.stagedOrds != nil {
				// Explicit tie-break stamp (AddXTupleSeq); keep the
				// sequential counter past it so later implicit stamps stay
				// unique.
				t.ord = x.stagedOrds[ti]
				if t.ord >= ord {
					ord = t.ord + 1
				}
			} else {
				t.ord = ord
				ord++
			}
			total++
		}
		x.stagedOrds = nil
		if deficit := 1 - x.RealMass(); deficit > nullThreshold {
			null := &Tuple{
				ID:    fmt.Sprintf("null:%s", x.Name),
				Prob:  deficit,
				Group: gi,
				Null:  true,
			}
			if seen[null.ID] {
				return fmt.Errorf("tuple %q: %w", null.ID, ErrDuplicateID)
			}
			seen[null.ID] = true
			x.Tuples = append(x.Tuples, null)
			total++
		}
	}
	db.rank = rank
	sorted := make([]*Tuple, 0, total)
	db.byID = make(map[string]*Tuple, total)
	for _, x := range db.groups.All() {
		sorted = append(sorted, x.Tuples...)
		for _, t := range x.Tuples {
			db.byID[t.ID] = t
		}
	}
	sort.SliceStable(sorted, func(i, j int) bool {
		return ranksAbove(sorted[i], sorted[j])
	})
	db.nReal = 0
	for _, t := range sorted {
		if !t.Null {
			db.nReal++
		}
	}
	db.rs = newRankStore(sorted)
	for _, x := range db.groups.All() {
		x.uid = db.newUID()
	}
	db.nextOrd = ord
	db.built = true
	db.version++
	db.publish()
	return nil
}

// Version returns the database's monotonic version counter: 0 before Build,
// and bumped by Build and by every mutation (InsertXTuple, DeleteXTuple,
// Reweight, Collapse; one bump per Batch). Consumers that memoize derived
// state — the Engine's per-k rank/quality passes — key it by version, so
// stale entries are detected lazily instead of requiring explicit
// invalidation.
//
// On a live database the answer is read from the latest published epoch,
// so Version is safe to call concurrently with mutations (a mutation's
// bump becomes visible exactly when its epoch publishes). On a snapshot it
// is the snapshot's own fixed version.
func (db *Database) Version() uint64 {
	if db.frozen {
		return db.version
	}
	if s := db.snap.Load(); s != nil {
		return s.version
	}
	return db.version
}

// DirtySince reports how much of the rank order may have changed since the
// given version: it returns the lowest rank position at which the scan
// state of version since and the current version can differ (the merged
// dirty-rank watermark of every mutation applied after since). Positions
// strictly below the watermark hold the same tuples with the same scores
// and probabilities in the same order, so any left-to-right scan — PSR in
// particular — is bit-identical over that prefix and can be resumed from
// it rather than recomputed.
//
// When since is the current version the whole order is clean and the
// watermark equals NumTuples(). ok is false when the question cannot be
// answered: the database is unbuilt, since is newer than the current
// version or predates Build, or the bounded watermark log no longer
// reaches back to since; callers must then recompute from scratch.
//
// Note the watermark is a property of the mutation history, not of the
// current array: it may exceed NumTuples() - 1 after deletions, meaning
// every current position is clean.
func (db *Database) DirtySince(since uint64) (watermark int, ok bool) {
	marks, ok := db.marksSince(since)
	if !ok {
		return 0, false
	}
	wm := db.rs.n
	for _, m := range marks {
		if m.watermark < wm {
			wm = m.watermark
		}
	}
	return wm, true
}

// GroupIndicesStableSince reports whether every x-tuple that exists in
// both the given version and the current one has kept its group index —
// i.e. no intervening mutation deleted a non-trailing x-tuple. Inserts
// (which append) and trailing deletes preserve surviving indices.
// Consumers that cache per-group state keyed by index use this to decide
// whether the cache can be carried across versions. Returns false when
// the question cannot be answered (same conditions as DirtySince).
func (db *Database) GroupIndicesStableSince(since uint64) bool {
	marks, ok := db.marksSince(since)
	if !ok {
		return false
	}
	for _, m := range marks {
		if m.renumbered {
			return false
		}
	}
	return true
}

// marksSince returns the watermark-log entries for every mutation applied
// after the given version — the shared window validation behind DirtySince
// and GroupIndicesStableSince. Every mutation appends exactly one mark, so
// the log covers a contiguous trailing window of versions; answering
// requires every version in (since, current] to still be present. ok is
// false when the database is unbuilt, since is newer than the current
// version or predates Build, or the bounded log has been trimmed past
// since. since == current answers with an empty window.
func (db *Database) marksSince(since uint64) ([]versionMark, bool) {
	if !db.built || since > db.version {
		return nil, false
	}
	if since == db.version {
		return nil, true
	}
	if len(db.marks) == 0 || db.marks[0].version > since+1 {
		return nil, false
	}
	lo := len(db.marks)
	for lo > 0 && db.marks[lo-1].version > since {
		lo--
	}
	return db.marks[lo:], true
}

// Built reports whether Build has completed successfully.
func (db *Database) Built() bool { return db.built }

// NumGroups returns m, the number of x-tuples.
func (db *Database) NumGroups() int { return db.groups.Len() }

// NumRealTuples returns n, the number of user-supplied tuples (excluding
// materialized nulls). This is the "database size" of Section VI.
func (db *Database) NumRealTuples() int {
	if !db.built {
		n := 0
		for _, x := range db.groups.All() {
			n += len(x.Tuples)
		}
		return n
	}
	return db.nReal
}

// NumTuples returns the number of alternatives including materialized
// nulls, i.e. the length of the rank order.
func (db *Database) NumTuples() int { return db.rs.n }

// Groups returns the x-tuples in group-index order. The x-tuples must not
// be modified.
//
// The x-tuples live in a chunked copy-on-write vector (chunks.go), so
// Groups materializes a fresh O(m) slice per call. It remains for
// whole-set consumers (export, world enumeration, partitioning); reach a
// single x-tuple with GroupAt, which is O(1) and allocation-free.
func (db *Database) Groups() []*XTuple { return db.groups.Materialize() }

// GroupAt returns the x-tuple at index l in O(1). l must lie in
// [0, NumGroups()); like a slice index, anything else panics. Use Group
// for a checked lookup.
func (db *Database) GroupAt(l int) *XTuple { return db.groups.At(l) }

// Group returns the x-tuple at index l.
func (db *Database) Group(l int) (*XTuple, error) {
	if l < 0 || l >= db.groups.Len() {
		return nil, fmt.Errorf("index %d of %d: %w", l, db.groups.Len(), ErrBadGroupIndex)
	}
	return db.groups.At(l), nil
}

// Sorted returns all alternatives in descending rank order (position 0 is
// the highest rank). Valid only after Build. The slice must not be
// modified.
//
// The order now lives in the chunked rank structure (chunks.go), so Sorted
// materializes a fresh O(n) slice per call. It remains for compatibility
// and for genuinely whole-order consumers; incremental scans and seeks
// should use CursorAt / AtRank, which cost O(log(n/C)) to position and
// O(1) per step with no allocation.
func (db *Database) Sorted() []*Tuple { return db.rs.materialize() }

// Rank returns the ranking function the database was built with.
func (db *Database) Rank() RankFunc { return db.rank }

// TupleByID returns the alternative with the given ID, or nil. On a live
// built database this is an O(1) index lookup — the mutation validation
// path (and any serving lookup) depends on it not scanning the rank
// order. On a snapshot it degrades to an O(n) scan of the frozen chunks:
// the ID index stays writer-private so that commits do not pay an
// O(n) map copy per epoch; route hot by-ID lookups through the live
// database (whose index is always current).
func (db *Database) TupleByID(id string) *Tuple {
	if db.byID != nil {
		return db.byID[id]
	}
	for _, c := range db.rs.chunks {
		for _, t := range c.tuples {
			if t.ID == id {
				return t
			}
		}
	}
	return nil
}

// Clone returns a deep copy of a built database, preserving the rank order
// and the stable x-tuple identities. The copy is live (mutable) even when
// db is a snapshot, so cloning a snapshot is the way to branch a mutable
// database off a pinned epoch. Cloning a live database must not run
// concurrently with mutations on it (it briefly takes the writer lock);
// cloning a snapshot is always safe.
func (db *Database) Clone() *Database {
	if !db.frozen {
		db.wmu.Lock()
		defer db.wmu.Unlock()
	}
	out := &Database{rank: db.rank, built: db.built, nReal: db.nReal, version: db.version,
		nextOrd: db.nextOrd, nextUID: db.nextUID,
		marks: append([]versionMark(nil), db.marks...)}
	clones := make(map[*Tuple]*Tuple, db.rs.n)
	for _, x := range db.groups.All() {
		nx := &XTuple{Name: x.Name, uid: x.uid, Tuples: make([]*Tuple, len(x.Tuples))}
		for ti, t := range x.Tuples {
			// Copy the frozen fields individually rather than the whole
			// struct: home/idx are writer-epoch fields that a concurrent
			// writer may be repairing in place on tuples shared with a
			// snapshot, so they must not be read here; the positions are
			// rederived from the rank order below.
			c := Tuple{ID: t.ID, Prob: t.Prob, Score: t.Score,
				Group: t.Group, Null: t.Null, ord: t.ord,
				Attrs: append([]float64(nil), t.Attrs...)}
			nx.Tuples[ti] = &c
			clones[t] = &c
		}
		out.groups.Append(nx)
	}
	if db.built {
		sorted := make([]*Tuple, 0, db.rs.n)
		out.byID = make(map[string]*Tuple, db.rs.n)
		for _, ch := range db.rs.chunks {
			for _, t := range ch.tuples {
				c := clones[t]
				sorted = append(sorted, c)
				out.byID[c.ID] = c
			}
		}
		out.rs = newRankStore(sorted)
		out.publish()
	}
	return out
}

// Cleaned returns a copy of the database after the given cleaning
// outcomes (Definition 5): choices maps an x-tuple index to the index of
// the alternative it was cleaned to (including the null alternative, which
// models the entity being confirmed absent). Each chosen alternative keeps
// its identity and value but its existential probability becomes 1; a
// null choice leaves the x-tuple certainly absent. x-tuples without a
// choice are copied unchanged. The copy is rebuilt, so rank positions are
// consistent; the database itself is unchanged. A key outside
// [0, NumGroups()) fails with ErrBadGroupIndex (the smallest such key is
// reported), and a choice outside the x-tuple's alternatives with
// ErrBadChoice (the lowest such x-tuple is reported).
func (db *Database) Cleaned(choices map[int]int) (*Database, error) {
	if !db.built {
		return nil, ErrNotBuilt
	}
	m := db.groups.Len()
	bad, found := 0, false
	for l := range choices {
		if (l < 0 || l >= m) && (!found || l < bad) {
			bad, found = l, true
		}
	}
	if found {
		return nil, fmt.Errorf("index %d of %d: %w", bad, m, ErrBadGroupIndex)
	}
	out := New()
	for gi, g := range db.groups.All() {
		var err error
		choice, cleaned := choices[gi]
		switch {
		case cleaned && (choice < 0 || choice >= len(g.Tuples)):
			return nil, fmt.Errorf("x-tuple %d choice %d: %w", gi, choice, ErrBadChoice)
		case cleaned && g.Tuples[choice].Null:
			// Entity confirmed absent: the x-tuple certainly contributes
			// no real tuple, but stays in the database.
			err = out.AddAbsentXTuple(g.Name)
		case cleaned:
			chosen := g.Tuples[choice]
			err = out.AddXTuple(g.Name, Tuple{ID: chosen.ID, Attrs: chosen.Attrs, Prob: 1})
		default:
			ts := make([]Tuple, 0, len(g.Tuples))
			for _, t := range g.RealTuples() {
				ts = append(ts, Tuple{ID: t.ID, Attrs: t.Attrs, Prob: t.Prob})
			}
			if len(ts) == 0 {
				// The group was itself cleaned to "absent" earlier.
				err = out.AddAbsentXTuple(g.Name)
			} else {
				err = out.AddXTuple(g.Name, ts...)
			}
		}
		if err != nil {
			return nil, err
		}
	}
	if err := out.Build(db.rank); err != nil {
		return nil, err
	}
	return out, nil
}

// Validate re-checks model invariants on a built database. It is cheap and
// intended for tests and for callers loading data from files.
func (db *Database) Validate() error {
	if !db.built {
		return ErrNotBuilt
	}
	if err := db.groups.Check(); err != nil {
		return err
	}
	seen := make(map[string]bool)
	for _, x := range db.groups.All() {
		if x == nil {
			return errSpine("group slot unset below the group count")
		}
		if err := x.validate(); err != nil {
			return err
		}
		for _, t := range x.Tuples {
			if seen[t.ID] {
				return fmt.Errorf("tuple %q: %w", t.ID, ErrDuplicateID)
			}
			seen[t.ID] = true
		}
	}
	if err := db.rs.check(); err != nil {
		return err
	}
	cur := db.CursorAt(0)
	prev := cur.Next()
	for i := 1; ; i++ {
		t := cur.Next()
		if t == nil {
			break
		}
		if ranksAbove(t, prev) {
			return fmt.Errorf("uncertain: rank order violated at position %d", i)
		}
		prev = t
	}
	return nil
}
