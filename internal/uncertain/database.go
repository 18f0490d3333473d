package uncertain

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
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
	version uint64        // bumped by Build and every mutation; see Version
	nextOrd int           // next insertion-order stamp for mutation-time inserts
	nextUID uint64        // next stable x-tuple identity; see newUID
	marks   []versionMark // per-mutation dirty-rank watermarks; see DirtySince
	ids     *idIndex      // writer-private ID index over the rank order; maintained by insertRanked/removeSorted

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
	x := &XTuple{Name: name, Tuples: newTuples(tuples)}
	if err := x.validate(); err != nil {
		return err
	}
	db.groups.Append(x)
	return nil
}

// newTuples copies src into the storage of one x-tuple: one []Tuple slab,
// one string holding every ID back to back and one []float64 holding every
// attribute vector back to back. Each copy's ID and Attrs are carved from
// the shared buffers (Attrs as a 3-index slice, so appending to it
// reallocates rather than overwrite the next alternative's values). An
// x-tuple of any width is thus four heap objects (the three buffers and
// the returned pointer slice, which has room for the null Build or an
// insert may append) instead of two per alternative: a database holds
// millions of alternatives, and every object is one more for the GC's
// mark phase, whose write barriers tax the mutation splice passes.
//
// Only the value fields are copied; home and idx start zero. Every path
// that creates tuples — AddXTuple, the insert core, the v1 wire decoder
// and Clone — goes through here, except the v2 wire decoder, which reads
// the ID string and attribute array off the wire and carves them into a
// newSlab itself; cowGroup copies a slab but keeps sharing the ID and
// attribute buffers, which are never written after creation.
func newTuples(src []Tuple) []*Tuple {
	idLen, attrLen := 0, 0
	for i := range src {
		idLen += len(src[i].ID)
		attrLen += len(src[i].Attrs)
	}
	var ids strings.Builder
	ids.Grow(idLen)
	var attrs []float64
	if attrLen > 0 {
		attrs = make([]float64, 0, attrLen)
	}
	for i := range src {
		ids.WriteString(src[i].ID)
		attrs = append(attrs, src[i].Attrs...)
	}
	idBuf := ids.String()
	out := newSlab(len(src))
	idOff, attrOff := 0, 0
	for i := range src {
		t := out[i]
		t.Prob, t.Score, t.Group, t.Null, t.ord = src[i].Prob, src[i].Score, src[i].Group, src[i].Null, src[i].ord
		t.ID = idBuf[idOff : idOff+len(src[i].ID)]
		idOff += len(src[i].ID)
		if n := len(src[i].Attrs); n > 0 {
			t.Attrs = attrs[attrOff : attrOff+n : attrOff+n]
			attrOff += n
		}
	}
	return out
}

// newSlab returns n zeroed alternatives of one x-tuple: one []Tuple slab
// and the pointer slice over it, with room for the null Build or an
// insert may append.
func newSlab(n int) []*Tuple {
	slab := make([]Tuple, n)
	out := make([]*Tuple, n, n+1)
	for i := range slab {
		out[i] = &slab[i]
	}
	return out
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
	// The ID index doubles as the duplicate check (a failed Build drops
	// it): sized for every staged alternative plus one null per x-tuple,
	// it never grows here.
	hint := db.groups.Len()
	for _, x := range db.groups.All() {
		hint += len(x.Tuples)
	}
	ids := newIDIndex(hint)
	// staged collects the real tuples in staging order for rankKeys; the
	// null alternatives rank below them all and order by x-tuple, so they
	// need no sort and follow in group order.
	staged := make([]*Tuple, 0, hint-db.groups.Len())
	var nulls []*Tuple
	ord := 0
	for gi, x := range db.groups.All() {
		if err := x.validate(); err != nil {
			return err
		}
		for ti, t := range x.Tuples {
			if ids.put(t) {
				return fmt.Errorf("tuple %q: %w", t.ID, ErrDuplicateID)
			}
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
			if t.Null {
				nulls = append(nulls, t)
			} else {
				staged = append(staged, t)
			}
		}
		x.stagedOrds = nil
		if deficit := 1 - x.RealMass(); deficit > nullThreshold {
			null := &Tuple{ID: nullID(x.Name), Prob: deficit, Group: gi, Null: true}
			if ids.put(null) {
				return fmt.Errorf("tuple %q: %w", null.ID, ErrDuplicateID)
			}
			x.Tuples = append(x.Tuples, null)
			nulls = append(nulls, null)
		}
	}
	db.rank = rank
	db.nReal = len(staged)
	keys := rankKeys(staged)
	db.rs = newRankStore(len(staged)+len(nulls), func(yield func(*Tuple) bool) {
		for _, k := range keys {
			if !yield(staged[k.pos]) {
				return
			}
		}
		for _, t := range nulls {
			if !yield(t) {
				return
			}
		}
	})
	db.ids = ids
	for _, x := range db.groups.All() {
		x.uid = db.newUID()
	}
	db.nextOrd = ord
	db.built = true
	db.version++
	db.publish()
	return nil
}

// rankKey is one real tuple's place in the rank order, held by value so
// that the sort compares contiguous 24-byte keys instead of dereferencing
// two tuples per comparison. pos is the tuple's index in Build's staging
// slice.
type rankKey struct {
	score float64
	ord   int
	pos   int
}

// rankKeys returns the keys of real tuples given in staging order, sorted
// into the total order ranksAbove defines exactly as a stable sort under
// ranksAbove would place the tuples. The keys are score descending, then
// stamp ascending, then staging position: ranksAbove leaves tuples with
// equal score and stamp unordered and a stable sort keeps those in
// staging order, so the position as the last key makes the order total
// and lets the unstable pattern-defeating quicksort reproduce it exactly.
func rankKeys(staged []*Tuple) []rankKey {
	keys := make([]rankKey, len(staged))
	for i, t := range staged {
		keys[i] = rankKey{score: t.Score, ord: t.ord, pos: i}
	}
	slices.SortFunc(keys, func(a, b rankKey) int {
		switch {
		case a.score > b.score:
			return -1
		case a.score < b.score:
			return 1
		case a.ord != b.ord:
			return cmp.Compare(a.ord, b.ord)
		}
		return cmp.Compare(a.pos, b.pos)
	})
	return keys
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
// built database this is an O(1) lookup in the writer's open-addressing
// ID index (idindex.go) — the mutation validation path (and any serving
// lookup) depends on it not scanning the rank order. On a snapshot it
// degrades to an O(n) scan of the frozen chunks: the index stays
// writer-private, mutated in place, so that commits do not pay an O(n)
// copy per epoch; route hot by-ID lookups through the live database
// (whose index is always current).
func (db *Database) TupleByID(id string) *Tuple {
	if db.ids != nil {
		return db.ids.get(id)
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
	if db.built {
		out.ids = newIDIndex(db.rs.n)
	}
	var scratch []Tuple
	for _, x := range db.groups.All() {
		// Copy the frozen fields individually rather than the whole
		// struct: home/idx are writer-epoch fields that a concurrent
		// writer may be repairing in place on tuples shared with a
		// snapshot, so they must not be read here; the positions are
		// rederived from the rank order below.
		scratch = scratch[:0]
		for _, t := range x.Tuples {
			scratch = append(scratch, Tuple{ID: t.ID, Attrs: t.Attrs, Prob: t.Prob,
				Score: t.Score, Group: t.Group, Null: t.Null, ord: t.ord})
		}
		nx := &XTuple{Name: x.Name, uid: x.uid, Tuples: newTuples(scratch)}
		if out.ids != nil {
			for _, c := range nx.Tuples {
				out.ids.put(c)
			}
		}
		out.groups.Append(nx)
	}
	if db.built {
		// IDs are unique, so the new index maps each original to its copy.
		out.rs = newRankStore(db.rs.n, func(yield func(*Tuple) bool) {
			for _, ch := range db.rs.chunks {
				for _, t := range ch.tuples {
					if !yield(out.ids.get(t.ID)) {
						return
					}
				}
			}
		})
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
	var ts []Tuple // AddXTuple copies, so one buffer serves every x-tuple
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
			ts = ts[:0]
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
	// The live database's ID index must hold exactly the rank order's
	// tuples (snapshots carry none).
	if db.ids != nil {
		if db.ids.n != db.rs.n {
			return fmt.Errorf("uncertain: ID index holds %d tuples, rank order %d", db.ids.n, db.rs.n)
		}
		for t := range db.Ranked(0) {
			if db.ids.get(t.ID) != t {
				return fmt.Errorf("uncertain: ID index does not map %q to its ranked tuple", t.ID)
			}
		}
	}
	return nil
}
