package uncertain

// This file is the epoch / copy-on-write machinery behind Database.Snapshot:
// lock-free snapshot isolation between one writer and any number of readers.
//
// The database's commit path (Build, finishMutation — which Batch funnels a
// whole burst of mutations through) publishes an *epoch*: an immutable,
// frozen *Database view sharing the writer's rank chunks, group chunks,
// x-tuple slabs, and watermark log by reference (the ID index stays writer-private; see
// publish). Readers pin the current epoch with Snapshot() — a single
// atomic pointer load, no lock, no copy — and then read it exactly like
// any built database; the view never changes under them, no matter how
// many mutations commit afterwards.
//
// The writer keeps snapshots valid by never writing to memory a published
// epoch can reach:
//
//   - Spines (the rank spine, the group vector's spine) are unshared
//     lazily: the first mutation after a publish copies them once
//     (unshare for the rank spine, cowvec.Vec for the group spine), and
//     every later mutation in the same unpublished epoch writes the
//     private copies in place. The watermark log is shared without a
//     copy: a commit appends past every published epoch's length and
//     trims by moving the window's start, so it never writes a mark an
//     epoch reads. The ID index is never shared in the first place, so
//     it is mutated in place without copies.
//   - Rank chunks and group chunks are copied at chunk granularity: the
//     first write into a chunk in an unpublished epoch clones it
//     (rankStore.dirty, see chunks.go; cowvec.Vec), so a commit copies
//     only the chunks it actually touched — O(changed chunks), not O(n)
//     or O(m).
//   - Tuples and x-tuples are copied at x-tuple granularity: a mutation
//     that would write a tuple field readers consume (Prob on Reweight and
//     Collapse, Group on delete renumbering, the alternatives slice on null
//     maintenance) first clones the owning x-tuple and its tuple slab
//     (cowGroup) and redirects the working containers to the clones. The
//     original x-tuple stays frozen in every older epoch.
//   - The exceptions are Tuple.home/Tuple.idx (the chunk back-pointers the
//     splice passes repair as they shift tuples) and the chunks' shared
//     pos/start/priv header. They are written in place on shared objects,
//     so they are *writer-epoch* fields: always correct for the newest
//     epoch, and no snapshot reader consumes them (cursors and seeks
//     navigate an epoch's own chunks/starts slices; the query and quality
//     scans derive positions from their own iteration index; see
//     Tuple.Index for the caller-facing contract). Each lives in its own
//     word, so the in-place writes do not race with readers of the frozen
//     fields around them.
//
// Readers therefore never block and never observe renumbering, and the
// writer's per-commit overhead is O(n/C + m/G) spine-pointer copies on the
// first mutation of an epoch (amortized across a Batch; C and G are the
// rank and group chunk sizes) plus O(C) per rank chunk, O(G) per group
// chunk and O(|group|) per x-tuple actually touched — compared against the
// O(k·n) query pass this protects, see DESIGN.md ("Snapshot serving") for
// why this beats a reader-writer lock here.

// Snapshot returns the current epoch: an immutable, fully built *Database
// view that is safe to read concurrently with any number of mutations on
// the live database. It is a single atomic load — no lock, no copying —
// and the returned view is stable: queries against it see the exact
// database state of one committed version, forever.
//
// The snapshot supports every read accessor (Sorted, Groups, TupleByID,
// DirtySince, Validate, Cleaned, Clone, ...); mutating methods fail with
// ErrFrozenSnapshot. Snapshot on a snapshot returns the snapshot itself.
// Two Snapshot calls with no intervening commit return the same pointer,
// which makes the pointer (or Version) usable as a cache key.
//
// Snapshot returns nil before Build.
func (db *Database) Snapshot() *Database {
	if db.frozen {
		return db
	}
	return db.snap.Load()
}

// Frozen reports whether db is an immutable snapshot view returned by
// Snapshot (true) or a live, mutable database (false).
func (db *Database) Frozen() bool { return db.frozen }

// Origin returns the live database a snapshot was taken from; for a live
// database it returns the database itself. Consumers that pin snapshots
// for reading but must apply writes to the live database (the Engine's
// ApplyCleaning) use it to check lineage.
func (db *Database) Origin() *Database {
	if db.frozen && db.origin != nil {
		return db.origin
	}
	return db
}

// publish commits the writer's current state as the new epoch. Called with
// the writer lock held (or before any concurrency exists: Build, Clone).
// After publish the containers are shared with the epoch, so the next
// mutation must unshare before writing them.
func (db *Database) publish() {
	// byID stays writer-private: cloning a 10k-entry map per commit would
	// dominate the mutation cost (and its garbage the collector), while
	// snapshot readers almost never look tuples up by ID — TupleByID on a
	// frozen view falls back to a rank-array scan instead.
	s := &Database{
		groups:  db.groups.Publish(),
		rank:    db.rank,
		rs:      db.rs,
		built:   true,
		nReal:   db.nReal,
		version: db.version,
		nextOrd: db.nextOrd,
		nextUID: db.nextUID,
		marks:   db.marks,
		frozen:  true,
		origin:  db,
	}
	db.snap.Store(s)
	db.shared = true
	db.cowed = nil
	// Advance the chunk epoch: every rank chunk is now shared with the
	// epoch just published, so the next in-place chunk write must COW it
	// first (rankStore.dirty; groups.publish above did the same for the
	// group chunks). This replaces the flat arrays' O(n) and O(m) copies
	// with O(1) — the commit-time cost is paid per chunk actually touched.
	db.rs.epoch++
}

// unshare gives the writer private copies of the containers shared with
// the last published epoch: the rank spine (the chunk-pointer and starts
// slices — the chunks themselves stay shared until individually dirtied).
// The watermark log needs no copy: finishMutation only ever appends past
// a published epoch's length. The group vector is not copied here: it unshares
// its own spine and chunks on first write (cowvec.Vec), so a commit
// copies ~m/256 spine pointers plus the group chunks it dirties, never the
// m group pointers. Mutation cores call unshare before their first
// in-place container write; within one unpublished epoch it runs at most
// once, so a Batch pays the O(n/C) spine copy a single time however many
// mutations it groups.
func (db *Database) unshare() {
	if !db.shared {
		return
	}
	db.rs.chunks = append([]*chunk(nil), db.rs.chunks...)
	db.rs.starts = append([]int(nil), db.rs.starts...)
	db.shared = false
}

// cowGroup returns a writable x-tuple for group gi, cloning the x-tuple
// and its tuple slab on first touch in the current unpublished epoch and
// redirecting the working rank array and ID index to the clones. The
// original x-tuple (and its tuples) stay frozen in every published epoch.
// Requires unshare to have run. The clone preserves the stable identity
// (uid) that checkpoint restoration keys on, and the tuples' rank
// positions, which the splice passes keep repairing on the clones.
func (db *Database) cowGroup(gi int) *XTuple {
	x := db.groups.At(gi)
	if db.cowed[x] {
		return x
	}
	nx := &XTuple{Name: x.Name, uid: x.uid, Tuples: make([]*Tuple, len(x.Tuples))}
	// One slab for the clones, as in AddXTuple: keeps the GC mark phase
	// cheap. Attrs backing arrays are shared with the originals — they are
	// never mutated after creation.
	backing := make([]Tuple, len(x.Tuples))
	for i, t := range x.Tuples {
		backing[i] = *t
		c := &backing[i]
		nx.Tuples[i] = c
		// Redirect the rank order to the clone: COW the owning chunk (the
		// chunk-granular analogue of the old O(n) array copy) and swap the
		// clone in at the same offset. The back-pointers copied from t
		// stay valid: the dirty chunk shares the header they name.
		hc := db.rs.dirty(t.home.pos)
		hc.tuples[t.idx] = c
		db.byID[c.ID] = c
	}
	db.groups.Set(gi, nx)
	db.markPrivate(nx)
	return nx
}

// markPrivate records that x was created (or cloned) in the current
// unpublished epoch, so further mutations before the next publish may
// write it in place without another clone.
func (db *Database) markPrivate(x *XTuple) {
	if db.cowed == nil {
		db.cowed = make(map[*XTuple]bool, 8)
	}
	db.cowed[x] = true
}

// newUID returns the next stable x-tuple identity. uids survive
// copy-on-write cloning (and Clone), so consumers that checkpoint
// per-x-tuple state across epochs (the PSR scan checkpoints) can re-match
// x-tuples after mutations replaced the Go objects.
func (db *Database) newUID() uint64 {
	db.nextUID++
	return db.nextUID
}
