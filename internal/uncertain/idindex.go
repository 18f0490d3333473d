package uncertain

import "hash/maphash"

// idIndex is the writer's ID index: an open-addressing hash table of tuple
// pointers keyed by each tuple's own ID. A slot is one pointer and the key
// is read from the tuple, so at 10^6 tuples the 2^21 slots cost 16.8 MB,
// where a map[string]*Tuple costs ~53 MB (Go rounds the size hint up to
// ~2.1 M slots of key, value and control byte).
//
// Collisions probe linearly, deletion shifts the rest of the probe chain
// back (so the table needs no tombstones and lookups never walk past a
// deleted key), and the table doubles before the load passes 3/4. The hash
// is maphash with a seed drawn per index, so tuple IDs chosen by a client
// cannot be crafted to land in one probe chain.
//
// The index is writer-private (publish never shares it) and keyed by ID:
// put replaces a tuple with the same ID, and del removes whichever tuple
// holds the ID.
type idIndex struct {
	slots []*Tuple // len is a power of two; nil marks an empty slot
	n     int
	seed  maphash.Seed
}

// newIDIndex returns an index sized to hold hint tuples without growing.
func newIDIndex(hint int) *idIndex {
	size := 8
	for size*3/4 < hint {
		size *= 2
	}
	return &idIndex{slots: make([]*Tuple, size), seed: maphash.MakeSeed()}
}

// home returns the slot id's probe chain starts at.
func (ix *idIndex) home(id string) int {
	return int(maphash.String(ix.seed, id) & uint64(len(ix.slots)-1))
}

// find returns the slot holding id, or the empty slot ending its chain.
func (ix *idIndex) find(id string) int {
	mask := len(ix.slots) - 1
	i := ix.home(id)
	for ix.slots[i] != nil && ix.slots[i].ID != id {
		i = (i + 1) & mask
	}
	return i
}

// get returns the tuple with the given ID, or nil.
func (ix *idIndex) get(id string) *Tuple {
	return ix.slots[ix.find(id)]
}

// put indexes t under t.ID, replacing any tuple with the same ID, and
// reports whether it replaced one.
func (ix *idIndex) put(t *Tuple) (replaced bool) {
	i := ix.find(t.ID)
	if ix.slots[i] != nil {
		ix.slots[i] = t
		return true
	}
	if (ix.n+1)*4 > len(ix.slots)*3 {
		ix.grow()
		i = ix.find(t.ID)
	}
	ix.slots[i] = t
	ix.n++
	return false
}

// del removes the tuple with the given ID, if any. The entries after it in
// its probe chain move back one slot each when that keeps them at or after
// their home slot, so every remaining chain stays unbroken.
func (ix *idIndex) del(id string) {
	mask := len(ix.slots) - 1
	i := ix.find(id)
	if ix.slots[i] == nil {
		return
	}
	for j := (i + 1) & mask; ix.slots[j] != nil; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j]: then moving it would put it before its home.
		if h := ix.home(ix.slots[j].ID); (j-h)&mask >= (j-i)&mask {
			ix.slots[i] = ix.slots[j]
			i = j
		}
	}
	ix.slots[i] = nil
	ix.n--
}

// grow doubles the table and re-inserts every entry.
func (ix *idIndex) grow() {
	old := ix.slots
	ix.slots = make([]*Tuple, 2*len(old))
	for _, t := range old {
		if t != nil {
			ix.slots[ix.find(t.ID)] = t
		}
	}
}
