package shard

import (
	"github.com/probdb/topkclean/internal/cowvec"
	"github.com/probdb/topkclean/internal/uncertain"
)

// entry is one logical x-tuple's placement: which shard holds it and its
// local group index there (sentinel is local 0, so content groups start
// at 1).
type entry struct {
	shard int32
	local int32
}

// directory is the cluster's live placement map, in global group index
// order (the index space every mutation addresses). Groups never move,
// and both appends and deletes keep the relative order of the survivors
// in both index spaces, so a group's local index is always its rank among
// the same-shard entries in global order. It is mutated only under the
// cluster writer lock; readers see placement through published epochs
// instead.
//
// It is two copy-on-write sequences that an epoch freezes — global index
// to placement (view) and, per shard, local index to global index
// (perShard, whose length is the shard's group count plus its sentinel) —
// so publishing them is O(shards) and a commit copies only the nodes on
// the paths it changed: an append or a tail delete touches the last leaf
// of each, a reweight or collapse nothing, and only a delete below the
// tail rewrites the O(m) entries after it.
type directory struct {
	view     cowvec.Seq[entry]   // view.At(gi) = placement of global group gi
	perShard []cowvec.Seq[int32] // perShard[s].At(local) = global index; sentinel -1
}

func newDirectory(shards int) *directory {
	d := &directory{perShard: make([]cowvec.Seq[int32], shards)}
	for s := range d.perShard {
		d.perShard[s].Append(-1) // the sentinel at local 0
	}
	return d
}

// at returns the shard and local index of global group gi.
func (d *directory) at(gi int) (shard, local int) {
	e := d.view.At(gi)
	return int(e.shard), int(e.local)
}

// append places a new group on shard s, at the end of the global index
// space and of the shard's local space.
func (d *directory) append(s int) {
	d.perShard[s].Append(int32(d.view.Len()))
	d.view.Append(entry{shard: int32(s), local: int32(d.perShard[s].Len() - 1)})
}

// removeGlobal deletes the group at global index gi, renumbering the
// locals above it in its shard — mirroring exactly how DeleteXTuple
// renumbers in both index spaces — and the global indices above it in
// every shard's map.
func (d *directory) removeGlobal(gi int) {
	e := d.view.At(gi)
	d.view.DeleteAt(gi)
	d.perShard[e.shard].DeleteAt(int(e.local))
	for j := gi; j < d.view.Len(); j++ {
		o := d.view.At(j)
		if o.shard == e.shard {
			o.local--
			d.view.Set(j, o)
		}
		d.perShard[o.shard].Set(int(o.local), int32(j))
	}
}

// epoch is one immutable published state of the cluster: pinned shard
// snapshots plus the placement maps frozen at the same commit. Queries
// load it once and read a fully consistent global database.
type epoch struct {
	version  uint64
	snaps    []*uncertain.Database
	entries  cowvec.Seq[entry]   // global group index -> placement
	perShard []cowvec.Seq[int32] // [shard] local -> global index; sentinel -1
	n        int                 // global alternatives (sentinels excluded)
	m        int                 // global groups (sentinels excluded)
}

// publishLocked freezes the current shard states and directory into a new
// epoch. Called under the writer lock after every commit (and at build).
// O(shards): the placement maps are published, not copied.
func (c *Cluster) publishLocked() {
	e := &epoch{version: c.version}
	e.snaps = make([]*uncertain.Database, len(c.shards))
	tuples := 0
	for i, sh := range c.shards {
		e.snaps[i] = sh.db.Snapshot()
		tuples += e.snaps[i].NumTuples()
	}
	e.m = c.dir.view.Len()
	e.n = tuples - len(c.shards) // one sentinel null per shard
	e.entries = c.dir.view.Publish()
	e.perShard = make([]cowvec.Seq[int32], len(c.shards))
	for s := range e.perShard {
		e.perShard[s] = c.dir.perShard[s].Publish()
	}
	c.epoch.Store(e)
}
