package shard

import (
	"github.com/probdb/topkclean/internal/cowvec"
	"github.com/probdb/topkclean/internal/uncertain"
)

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
// index order (the index space every mutation addresses). Groups never
// move, and both appends and deletes keep the relative order of the
// survivors in both index spaces, so a group's local index is always its
// rank among the same-shard entries in global order.
// It is mutated only under the cluster writer lock; readers see placement
// through published epochs instead.
//
// Beside the writer's entries it keeps the two maps an epoch freezes as
// copy-on-write vectors — global index to placement (view) and, per
// shard, local index to global index (perShard, whose length is the
// shard's group count plus its sentinel) — updated in step with every
// transition, so publishing them is O(shards) and a commit copies
// only the chunks it changed: an append or a tail delete touches the last
// chunk of each, a reweight or collapse nothing, and only a delete below
// the tail shifts O(m) slots.
type directory struct {
	entries  []*entry
	view     cowvec.Vec[entryView] // view.At(gi) mirrors entries[gi]
	perShard []cowvec.Vec[int32]   // perShard[s].At(local) = global index; sentinel -1
}

// collapse records that the group was resolved to alternative choice: a
// real alternative keeps only its own stamp (reals come first, in gseqs
// order), and the null leaves the group certainly absent, with none.
func (e *entry) collapse(choice int) {
	if choice < len(e.gseqs) {
		e.gseqs = []int{e.gseqs[choice]}
	} else {
		e.gseqs = nil
	}
}

func newDirectory(shards int) *directory {
	d := &directory{perShard: make([]cowvec.Vec[int32], shards)}
	for s := range d.perShard {
		d.perShard[s].Append(-1) // the sentinel at local 0
	}
	return d
}

// append places a new group at the end of the global index space and of
// its shard's local space, filling in its local index.
func (d *directory) append(e *entry) {
	d.perShard[e.shard].Append(int32(len(d.entries)))
	d.entries = append(d.entries, e)
	e.local = d.perShard[e.shard].Len() - 1
	d.view.Append(entryView{shard: int32(e.shard), local: int32(e.local)})
}

// removeGlobal deletes the group at global index gi, renumbering the
// locals above it in its shard — mirroring exactly how DeleteXTuple
// renumbers in both index spaces — and the global indices above it in
// every shard's map.
func (d *directory) removeGlobal(gi int) {
	e := d.entries[gi]
	d.entries = append(d.entries[:gi], d.entries[gi+1:]...)
	d.view.DeleteAt(gi)
	d.perShard[e.shard].DeleteAt(e.local)
	for j, o := range d.entries[gi:] {
		if o.shard == e.shard {
			o.local--
			d.view.Set(gi+j, entryView{shard: int32(o.shard), local: int32(o.local)})
		}
		d.perShard[o.shard].Set(o.local, int32(gi+j))
	}
}

// entryView is an entry frozen into an epoch.
type entryView struct {
	shard int32
	local int32
}

// epoch is one immutable published state of the cluster: pinned shard
// snapshots plus the placement maps frozen at the same commit. Queries
// load it once and read a fully consistent global database.
type epoch struct {
	version  uint64
	snaps    []*uncertain.Database
	entries  cowvec.Vec[entryView] // global group index -> placement
	perShard []cowvec.Vec[int32]   // [shard] local -> global index; sentinel -1
	n        int                   // global alternatives (sentinels excluded)
	m        int                   // global groups (sentinels excluded)
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
	e.m = len(c.dir.entries)
	e.n = tuples - len(c.shards) // one sentinel null per shard
	e.entries = c.dir.view.Publish()
	e.perShard = make([]cowvec.Vec[int32], len(c.shards))
	for s := range e.perShard {
		e.perShard[s] = c.dir.perShard[s].Publish()
	}
	c.epoch.Store(e)
}
