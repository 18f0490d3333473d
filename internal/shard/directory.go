package shard

import "github.com/probdb/topkclean/internal/uncertain"

// entry is one logical x-tuple's placement: which shard holds it, its
// local group index there (sentinel is local 0, so content groups start at
// 1), and the global tie-break stamp of each real alternative (parallel to
// RealTuples; nil for absent groups).
type entry struct {
	shard int
	local int
	gseqs []int
}

// directory is the cluster's live placement map: entries in global group
// index order (the index space every mutation addresses) plus each shard's
// group count. Groups never move, and both appends and deletes keep the
// relative order of the survivors in both index spaces, so a group's local
// index is always its rank among the same-shard entries in global order.
// It is mutated only under the cluster writer lock; readers see placement
// through published epochs instead.
type directory struct {
	entries []*entry
	size    []int // size[s]: content groups on shard s
}

func newDirectory(shards int) *directory {
	return &directory{size: make([]int, shards)}
}

// append places a new group at the end of the global index space and of
// its shard's local space, filling in its local index.
func (d *directory) append(e *entry) {
	d.entries = append(d.entries, e)
	d.size[e.shard]++
	e.local = d.size[e.shard]
}

// removeGlobal deletes the group at global index gi, renumbering the
// locals above it in its shard — mirroring exactly how DeleteXTuple
// renumbers in both index spaces.
func (d *directory) removeGlobal(gi int) {
	e := d.entries[gi]
	d.entries = append(d.entries[:gi], d.entries[gi+1:]...)
	for _, o := range d.entries[gi:] {
		if o.shard == e.shard {
			o.local--
		}
	}
	d.size[e.shard]--
}

// entryView is an entry frozen into an epoch.
type entryView struct {
	shard int32
	local int32
}

// epoch is one immutable published state of the cluster: pinned shard
// snapshots plus the placement map frozen at the same commit. Queries
// load it once and read a fully consistent global database.
type epoch struct {
	version  uint64
	snaps    []*uncertain.Database
	entries  []entryView // global group index -> placement
	perShard [][]int32   // [shard][local] -> global index; sentinel -1
	n        int         // global alternatives (sentinels excluded)
	m        int         // global groups (sentinels excluded)
}

// publishLocked freezes the current shard states and directory into a new
// epoch. Called under the writer lock after every commit (and at build).
func (c *Cluster) publishLocked() {
	e := &epoch{version: c.version}
	e.snaps = make([]*uncertain.Database, len(c.shards))
	tuples := 0
	for i, sh := range c.shards {
		e.snaps[i] = sh.live().Snapshot()
		tuples += e.snaps[i].NumTuples()
	}
	e.m = len(c.dir.entries)
	e.n = tuples - len(c.shards) // one sentinel null per shard
	e.entries = make([]entryView, e.m)
	e.perShard = make([][]int32, len(c.shards))
	for s := range c.shards {
		e.perShard[s] = make([]int32, c.dir.size[s]+1)
		e.perShard[s][0] = -1 // sentinel
	}
	for gi, en := range c.dir.entries {
		e.entries[gi] = entryView{shard: int32(en.shard), local: int32(en.local)}
		e.perShard[en.shard][en.local] = int32(gi)
	}
	c.epoch.Store(e)
}
