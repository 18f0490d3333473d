package uncertain

import (
	"iter"
	"sort"
)

// This file is the chunked order-statistic rank structure behind the
// database's global rank order (the "indexed rank structure" ROADMAP names
// as the refactor that unlocks million-tuple tenants; see DESIGN.md,
// "Chunked rank structure"). The flat rank array made every mutation pay an
// O(n) splice and every commit an O(n) COW unshare. Here the order lives in
// a spine of score-sorted chunks:
//
//	chunks: [c0] [c1] [c2] ... (each chunkMin..chunkMax tuples, rank order
//	        within a chunk and across chunk boundaries)
//	starts: starts[i] = global rank position of chunks[i].tuples[0]
//
// Seeking a rank position (AtRank, CursorAt) is a binary search over
// starts — O(log(n/C)). A mutation binary-searches the target chunk, COWs
// just that chunk (dirty), splices within it — O(C) — and then repairs the
// spine bookkeeping (starts and the writer-epoch pos/start chunk headers)
// for the chunks after it — O(n/C). With C near sqrt(n) the whole
// mutation is O(sqrt n) instead of O(n), and commit-time COW copies one
// spine of pointers plus only the chunks actually touched.
//
// Sharing contract (the same epoch scheme as snapshot.go): publish hands
// the current rankStore value (spine slices shared, chunks shared) to the
// frozen epoch and bumps rs.epoch. The writer then never mutates shared
// memory a reader consumes: unshare clones the spine slices, and dirty
// clones a chunk's tuple slice before the first in-place write of an epoch
// (priv records the epoch that owns the chunk). A chunk's pos, start and
// priv live in a chunkHome that the chunk and all its clones share, and a
// tuple's home points at that header, so a clone re-homes no tuple. The
// header fields and the tuples' home/idx back-pointers are *writer-epoch*
// state, repaired in place on shared objects; readers (Cursor, AtRank,
// materialize) navigate exclusively through their own epoch's chunks/starts
// slices and the chunks' tuple slices, which are immutable once shared.
const (
	// chunkTarget is the build-time chunk size. 256 tuples keeps a chunk's
	// splice (copy of ~2KB of pointers) comfortably inside the cache lines
	// the binary searches already touched, while a million-tuple database
	// still needs only ~4k spine entries, so the O(n/C) spine repair stays
	// in the tens of microseconds.
	chunkTarget = 256
	// chunkMax triggers a split; 2x the target, so a freshly split pair
	// sits at the target size.
	chunkMax = 2 * chunkTarget
	// chunkMin triggers a merge with a neighbour after deletions, keeping
	// the spine from accumulating slivers that would degrade the cursor's
	// sequential throughput.
	chunkMin = chunkTarget / 4
)

// chunk is one run of consecutive rank positions. tuples is immutable once
// the chunk is shared with a published epoch; the embedded header's fields
// are writer-epoch state (see the file comment).
type chunk struct {
	tuples []*Tuple
	*chunkHome
}

// chunkHome is the writer-epoch state of one spine entry, shared by a
// chunk and every copy-on-write clone of it. Tuple.home points here, so
// cloning a chunk leaves its tuples' back-pointers valid; only a split or
// a merge, which moves tuples to another entry, re-homes them.
type chunkHome struct {
	priv  uint64 // epoch whose chunk at this entry may be written in place
	pos   int    // index in the writer's spine
	start int    // global rank position of the entry's first tuple
}

// rankStore is the spine. It is held by value in Database so that publish
// can hand a frozen epoch its own consistent (chunks, starts, n) triple by
// struct copy; the slices are then lazily unshared like every other
// container.
type rankStore struct {
	chunks []*chunk
	starts []int // starts[i] = global rank position of chunks[i].tuples[0]
	n      int   // total tuples
	epoch  uint64
}

// newRankStore chunks an already rank-sorted slice. The tuples' home/idx
// back-pointers are (re)assigned; the input slice is not retained.
func newRankStore(sorted []*Tuple) rankStore {
	rs := rankStore{n: len(sorted), epoch: 1}
	nc := (len(sorted) + chunkTarget - 1) / chunkTarget
	rs.chunks = make([]*chunk, 0, nc)
	rs.starts = make([]int, 0, nc)
	for i := 0; i < len(sorted); i += chunkTarget {
		j := i + chunkTarget
		if j > len(sorted) {
			j = len(sorted)
		}
		c := &chunk{
			tuples:    append([]*Tuple(nil), sorted[i:j]...),
			chunkHome: &chunkHome{priv: 1, pos: len(rs.chunks), start: i},
		}
		for off, t := range c.tuples {
			t.home, t.idx = c.chunkHome, off
		}
		rs.chunks = append(rs.chunks, c)
		rs.starts = append(rs.starts, i)
	}
	return rs
}

// dirty returns a writable chunk for spine position ci, cloning the tuple
// slice on first touch in the current epoch (the chunk-granular analogue of
// cowGroup). The clone shares the original's header, which the tuples'
// home pointers name, so the clone costs one slice copy and no per-tuple
// write.
func (rs *rankStore) dirty(ci int) *chunk {
	c := rs.chunks[ci]
	if c.priv == rs.epoch {
		return c
	}
	nc := &chunk{tuples: append([]*Tuple(nil), c.tuples...), chunkHome: c.chunkHome}
	nc.priv = rs.epoch
	rs.chunks[ci] = nc
	return nc
}

// repairFrom recomputes starts, n, and the chunks' pos/start caches for
// every spine position >= ci. O(n/C); called once per structural mutation.
func (rs *rankStore) repairFrom(ci int) {
	if ci < 0 {
		ci = 0
	}
	start := 0
	if ci > 0 && ci <= len(rs.chunks) {
		start = rs.starts[ci-1] + len(rs.chunks[ci-1].tuples)
	}
	for ; ci < len(rs.chunks); ci++ {
		c := rs.chunks[ci]
		c.pos, c.start = ci, start
		rs.starts[ci] = start
		start += len(c.tuples)
	}
	rs.n = start
}

// insert places t at its rank position (the unique one ranksAbove's total
// order defines), returning that position. O(log n + C + n/C).
func (rs *rankStore) insert(t *Tuple) int {
	if len(rs.chunks) == 0 {
		c := &chunk{tuples: []*Tuple{t}, chunkHome: &chunkHome{priv: rs.epoch}}
		t.home, t.idx = c.chunkHome, 0
		rs.chunks = append(rs.chunks, c)
		rs.starts = append(rs.starts, 0)
		rs.repairFrom(0)
		return 0
	}
	// The owning chunk is the last one whose head ranks at-or-above t
	// (chunk 0 when t outranks everything).
	ci := sort.Search(len(rs.chunks), func(i int) bool {
		return ranksAbove(t, rs.chunks[i].tuples[0])
	})
	if ci > 0 {
		ci--
	}
	c := rs.dirty(ci)
	off := sort.Search(len(c.tuples), func(j int) bool {
		return ranksAbove(t, c.tuples[j])
	})
	pos := rs.starts[ci] + off
	c.tuples = append(c.tuples, nil)
	copy(c.tuples[off+1:], c.tuples[off:])
	c.tuples[off] = t
	t.home = c.chunkHome
	for j := off; j < len(c.tuples); j++ {
		c.tuples[j].idx = j
	}
	if len(c.tuples) > chunkMax {
		rs.split(ci)
	}
	rs.repairFrom(ci)
	return pos
}

// split halves the (already private) chunk at ci into two target-sized
// chunks. The caller repairs the spine.
func (rs *rankStore) split(ci int) {
	c := rs.chunks[ci]
	half := len(c.tuples) / 2
	right := &chunk{
		tuples:    append([]*Tuple(nil), c.tuples[half:]...),
		chunkHome: &chunkHome{priv: rs.epoch},
	}
	for off, t := range right.tuples {
		t.home, t.idx = right.chunkHome, off
	}
	tail := c.tuples[half:]
	c.tuples = c.tuples[:half]
	for j := range tail {
		tail[j] = nil // release for GC
	}
	rs.chunks = append(rs.chunks, nil)
	copy(rs.chunks[ci+2:], rs.chunks[ci+1:])
	rs.chunks[ci+1] = right
	rs.starts = append(rs.starts, 0) // value fixed by repairFrom
}

// remove splices the given tuples out of the rank order, preserving the
// order of the rest, and returns the global position of the first removed
// tuple (n when drop matched nothing) — the delete's dirty-rank watermark.
// Each touched chunk is COWed and spliced exactly once; cost is
// O(d log d + span + n/C) where span covers the chunks the dropped tuples
// live in.
func (rs *rankStore) remove(drop []*Tuple) int {
	type loc struct{ ci, off int }
	locs := make([]loc, 0, len(drop))
	for _, t := range drop {
		h := t.home
		if h == nil {
			continue
		}
		ci := h.pos
		if ci < 0 || ci >= len(rs.chunks) || rs.chunks[ci].chunkHome != h {
			continue // not a chunk of this store's current spine
		}
		if c := rs.chunks[ci]; t.idx < 0 || t.idx >= len(c.tuples) || c.tuples[t.idx] != t {
			continue // stale back-pointer: tuple is not in the order
		}
		locs = append(locs, loc{ci, t.idx})
	}
	if len(locs) == 0 {
		return rs.n
	}
	sort.Slice(locs, func(i, j int) bool {
		if locs[i].ci != locs[j].ci {
			return locs[i].ci < locs[j].ci
		}
		return locs[i].off < locs[j].off
	})
	watermark := rs.starts[locs[0].ci] + locs[0].off
	first := locs[0].ci
	for i := 0; i < len(locs); {
		ci := locs[i].ci
		j := i
		for j < len(locs) && locs[j].ci == ci {
			j++
		}
		c := rs.dirty(ci)
		// One compacting pass over the chunk's suffix, repairing offsets.
		out := locs[i].off
		for q := i; q < j; q++ {
			end := len(c.tuples)
			if q+1 < j {
				end = locs[q+1].off
			}
			out += copy(c.tuples[out:], c.tuples[locs[q].off+1:end])
		}
		for z := out; z < len(c.tuples); z++ {
			c.tuples[z] = nil // release for GC
		}
		c.tuples = c.tuples[:out]
		for z := locs[i].off; z < out; z++ {
			c.tuples[z].idx = z
		}
		i = j
	}
	rs.rebalance(first)
	return watermark
}

// rebalance drops emptied chunks and merges underfull neighbours over the
// spine suffix starting just before ci, then repairs the spine. Merging
// keeps every chunk at chunkMin+ (single-chunk stores excepted), so cursor
// iteration stays a run of dense slice scans.
func (rs *rankStore) rebalance(ci int) {
	if ci > 0 {
		ci--
	}
	w := ci
	for ri := ci; ri < len(rs.chunks); ri++ {
		c := rs.chunks[ri]
		if len(c.tuples) == 0 {
			continue
		}
		if w > 0 {
			prev := rs.chunks[w-1]
			if (len(prev.tuples) < chunkMin || len(c.tuples) < chunkMin) &&
				len(prev.tuples)+len(c.tuples) <= chunkMax {
				prev = rs.dirty(w - 1)
				base := len(prev.tuples)
				prev.tuples = append(prev.tuples, c.tuples...)
				for z := base; z < len(prev.tuples); z++ {
					t := prev.tuples[z]
					t.home, t.idx = prev.chunkHome, z
				}
				continue
			}
		}
		rs.chunks[w] = c
		w++
	}
	for z := w; z < len(rs.chunks); z++ {
		rs.chunks[z] = nil
	}
	rs.chunks = rs.chunks[:w]
	rs.starts = rs.starts[:w]
	rs.repairFrom(ci)
}

// materialize returns the order as one flat slice (Database.Sorted). O(n).
func (rs *rankStore) materialize() []*Tuple {
	out := make([]*Tuple, 0, rs.n)
	for _, c := range rs.chunks {
		out = append(out, c.tuples...)
	}
	return out
}

// seek locates global rank position pos: the spine index of the chunk
// holding it and the offset within that chunk. Binary search over starts —
// the read-side O(log(n/C)) seek; safe on any epoch, because it consults
// only that epoch's own starts slice, never the writer-epoch chunk caches.
func (rs *rankStore) seek(pos int) (ci, off int) {
	ci = sort.Search(len(rs.starts), func(i int) bool {
		return rs.starts[i] > pos
	}) - 1
	if ci < 0 {
		return 0, 0
	}
	return ci, pos - rs.starts[ci]
}

// check validates the spine's structural invariants: starts mirrors the
// chunk lengths, n is their sum, and no chunk is empty or over the split
// threshold. It reads only epoch-frozen state, so it is safe on snapshots.
func (rs *rankStore) check() error {
	if len(rs.starts) != len(rs.chunks) {
		return errSpine("starts/chunks length mismatch")
	}
	start := 0
	for i, c := range rs.chunks {
		if len(c.tuples) == 0 {
			return errSpine("empty chunk in spine")
		}
		if len(c.tuples) > chunkMax {
			return errSpine("chunk exceeds split threshold")
		}
		if rs.starts[i] != start {
			return errSpine("starts out of step with chunk lengths")
		}
		start += len(c.tuples)
	}
	if start != rs.n {
		return errSpine("chunk lengths do not sum to n")
	}
	return nil
}

// AtRank returns the tuple at global rank position pos (0 = highest rank),
// or nil when pos is out of range. O(log(n/C)) via the spine's order
// statistics; safe on live databases and snapshots alike (on a live
// database, like any read, not concurrently with mutations).
func (db *Database) AtRank(pos int) *Tuple {
	if pos < 0 || pos >= db.rs.n {
		return nil
	}
	ci, off := db.rs.seek(pos)
	return db.rs.chunks[ci].tuples[off]
}

// Cursor iterates the global rank order of one database view in descending
// rank order. Obtain one with CursorAt; it is invalidated by mutations on
// the database it came from (pin a Snapshot to iterate concurrently with a
// writer, as with any read).
type Cursor struct {
	chunks []*chunk
	ci     int
	off    int
}

// CursorAt returns a cursor positioned at global rank position pos, the
// O(log(n/C))-seek + O(1)-step replacement for indexing the old flat rank
// array. Positions at or beyond NumTuples() yield an exhausted cursor.
func (db *Database) CursorAt(pos int) Cursor {
	if pos <= 0 {
		return Cursor{chunks: db.rs.chunks}
	}
	ci, off := db.rs.seek(pos)
	return Cursor{chunks: db.rs.chunks, ci: ci, off: off}
}

// Ranked yields the tuples from global rank position pos down, each with
// its x-tuple's group index: the (alternative, x-tuple) pairs a rank scan
// consumes. It walks a cursor, so it costs what CursorAt and Next cost.
func (db *Database) Ranked(pos int) iter.Seq2[*Tuple, int] {
	return func(yield func(*Tuple, int) bool) {
		cur := db.CursorAt(pos)
		for t := cur.Next(); t != nil; t = cur.Next() {
			if !yield(t, t.Group) {
				return
			}
		}
	}
}

// Next returns the tuple at the cursor's position and advances past it,
// or nil when the order is exhausted.
func (c *Cursor) Next() *Tuple {
	for c.ci < len(c.chunks) {
		ch := c.chunks[c.ci]
		if c.off < len(ch.tuples) {
			t := ch.tuples[c.off]
			c.off++
			return t
		}
		c.ci++
		c.off = 0
	}
	return nil
}

// errSpine wraps a structural spine violation for Validate.
type errSpine string

func (e errSpine) Error() string { return "uncertain: rank spine corrupt: " + string(e) }
