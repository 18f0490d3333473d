package uncertain

// This file is the epoch / copy-on-write machinery behind Database.Snapshot:
// lock-free snapshot isolation between one writer and any number of readers.
//
// The database's commit path (Build, finishMutation — which Batch funnels a
// whole burst of mutations through) publishes an *epoch*: an immutable,
// frozen *Database view sharing the writer's rank-order and x-tuple-vector
// nodes, x-tuple slabs, and watermark log by reference (the ID index stays
// writer-private; see publish). Readers pin the current epoch with
// Snapshot() — a single atomic pointer load, no lock, no copy — and then
// read it exactly like any built database; the view never changes under
// them, no matter how many mutations commit afterwards.
//
// The writer keeps snapshots valid by never writing to memory a published
// epoch can reach:
//
//   - The rank order and the x-tuple vector are cowvec sequences, copied
//     at node granularity: publishing hands each root to the epoch, and
//     the writer's first write below a node of an older epoch clones it,
//     so a commit copies only the root-to-leaf paths it actually wrote —
//     O(changed paths), not O(n) or O(m). The watermark log is shared
//     without a copy: a commit appends past every published epoch's
//     length and trims by moving the window's start, so it never writes a
//     mark an epoch reads. The ID index is never shared in the first
//     place, so it is mutated in place without copies.
//   - Tuples and x-tuples are copied at x-tuple granularity: a mutation
//     that would write a tuple field readers consume (Prob on Reweight and
//     Collapse, Group on delete renumbering, the alternatives slice on null
//     maintenance) first clones the owning x-tuple and its tuple slab
//     (cowGroup) and redirects the working containers to the clones. The
//     original x-tuple stays frozen in every older epoch.
//   - The exceptions are Tuple.home (the rank-order back-pointer: the
//     header of the tuple's leaf) and the headers themselves (cowvec.Home:
//     the leaf's current clone, its parent's header, its index there),
//     which splits, merges and clones update in place on shared objects.
//     They are *writer-epoch* state: always correct for the newest epoch,
//     and no snapshot reader consumes them (cursors and seeks descend an
//     epoch's own nodes; the query and quality scans derive positions
//     from their own iteration index; see Tuple.Index for the
//     caller-facing contract). Each is its own memory location, so the
//     in-place writes do not race with readers of the frozen fields
//     around them.
//
// Readers therefore never block and never observe renumbering, and the
// writer's per-commit overhead is O(W log_W n) per rank-order element and
// O(W log_W m) per x-tuple-vector element it writes (W = cowvec.Width:
// one node of at most W slots per level of the path, copied once per
// epoch), plus O(|group|) per x-tuple touched — compared against the
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
// mutation copies each node before it writes it (cowvec).
func (db *Database) publish() {
	// The ID index stays writer-private: copying a table of n slots per
	// commit would dominate the mutation cost (and its garbage the
	// collector), while snapshot readers almost never look tuples up by
	// ID — TupleByID on a frozen view falls back to a rank-order scan.
	s := &Database{
		groups:  db.groups.Publish(),
		rank:    db.rank,
		rs:      db.rs.Publish(),
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
	db.cowed = nil
}

// cowGroup returns a writable x-tuple for group gi, cloning the x-tuple
// and its tuple slab on first touch in the current unpublished epoch and
// redirecting the rank order and ID index to the clones. The original
// x-tuple (and its tuples) stay frozen in every published epoch. The clone
// preserves the stable identity (uid) that checkpoint restoration keys
// on, and the tuples' homes, which the mutations keep current.
func (db *Database) cowGroup(gi int) *XTuple {
	x := db.groups.At(gi)
	if db.cowed[x] {
		return x
	}
	nx := &XTuple{Name: x.Name, uid: x.uid, Tuples: make([]*Tuple, len(x.Tuples))}
	// One slab for the clones, as newTuples allocates: keeps the GC mark
	// phase cheap. The clones share the originals' ID and attribute
	// buffers — they are never written after creation.
	backing := make([]Tuple, len(x.Tuples))
	for i, t := range x.Tuples {
		backing[i] = *t
		c := &backing[i]
		nx.Tuples[i] = c
		// Redirect the rank order to the clone at t's position; the
		// home copied from t stays valid, since the leaf's copy shares it.
		db.rs.Set(t.Index(), c)
		db.ids.put(c)
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
