package shard

import (
	"errors"
	"fmt"
	"math"

	"github.com/probdb/topkclean/internal/store"
	"github.com/probdb/topkclean/internal/uncertain"
)

// place returns the shard of an x-tuple whose first global stamp is gseq:
// the splitmix64 finalizer of the stamp, mod n. The mix matters: a
// 2-alternative arrival takes two stamps, so a plain gseq % n would feed
// only even shards.
func place(gseq, n int) int {
	z := uint64(gseq)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}

// placeGroup is the production placement of a group with the given real
// stamps: place of its first stamp, or the bottom shard for an absent
// group, which holds none. The group index is unused; it is part of the
// signature so tests can substitute arbitrary placements.
func (c *Cluster) placeGroup(_ int, gseqs []int) int {
	if len(gseqs) == 0 {
		return c.cfg.Shards - 1
	}
	return place(gseqs[0], c.cfg.Shards)
}

// Batch groups cluster mutations into one commit: one cluster version
// bump, one meta journal record, one published epoch. Semantics mirror
// the unsharded Batch: mutations apply in order, a failed mutation leaves
// the cluster as it was just before that call, successful ones stay
// applied, and a batch with no successful mutation bumps nothing.
type Batch struct {
	c       *Cluster
	mutated bool
	ops     []metaOp
}

// Batch runs fn against the cluster under the writer lock and commits
// once. See Batch (the type) for semantics.
func (c *Cluster) Batch(fn func(*Batch) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.built {
		return uncertain.ErrNotBuilt
	}
	if c.closed {
		return fmt.Errorf("shard: cluster is closed")
	}
	if c.poisoned != nil {
		return fmt.Errorf("%w (%v)", ErrPoisoned, c.poisoned)
	}
	b := &Batch{c: c}
	err := fn(b)
	var jerr error
	if b.mutated && c.poisoned == nil {
		c.version++
		jerr = c.appendMetaLocked(b.ops)
		c.publishLocked()
	}
	b.c = nil // poison: a Batch must not outlive its callback
	if jerr != nil {
		return jerr
	}
	return err
}

// poison records the first internal write failure and switches the
// cluster read-only.
func (c *Cluster) poison(err error) error {
	if c.poisoned == nil {
		c.poisoned = err
	}
	return fmt.Errorf("%w (%v)", ErrPoisoned, err)
}

// InsertXTuple inserts a new x-tuple on the shard place picks for it.
// Validation — in the unsharded insert's order, with its errors, and
// including the duplicate-ID check against every shard's live ID index —
// happens entirely before a stamp is drawn or any shard is touched.
func (b *Batch) InsertXTuple(name string, tuples ...uncertain.Tuple) error {
	c := b.c
	if err := checkReserved(name, tuples); err != nil {
		return err
	}
	if len(tuples) == 0 {
		return fmt.Errorf("x-tuple %q: %w", name, uncertain.ErrEmptyXTuple)
	}
	for i := range tuples {
		if math.IsNaN(c.rank(tuples[i].Attrs)) {
			return fmt.Errorf("tuple %q: %w", tuples[i].ID, uncertain.ErrBadScore)
		}
	}
	if err := uncertain.CheckAlternatives(name, tuples); err != nil {
		return err
	}
	ids := make([]string, 0, len(tuples)+1)
	for i := range tuples {
		ids = append(ids, tuples[i].ID)
	}
	if _, materialize := uncertain.NullDeficit(tuples); materialize {
		ids = append(ids, "null:"+name)
	}
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		// The within-call check comes first, as in the unsharded insert.
		if seen[id] || c.idLive(id) {
			return fmt.Errorf("tuple %q: %w", id, uncertain.ErrDuplicateID)
		}
		seen[id] = true
	}

	// Validated; stamp, place, insert.
	seqs := make([]int, len(tuples))
	for i := range seqs {
		seqs[i] = c.nextGseq
		c.nextGseq++
	}
	j := c.placeGroup(0, seqs)
	if err := c.onShard(j, func(sb shardBatch) error { return sb.InsertXTupleSeq(name, seqs, tuples...) }); err != nil {
		b.mutated = true
		return c.poison(err)
	}
	c.dir.append(&entry{shard: j, gseqs: seqs})
	b.mutated = true
	b.ops = append(b.ops, metaOp{Op: "ins", Shard: j, Gseqs: seqs})
	return nil
}

// InsertAbsentXTuple inserts an absent x-tuple. Absent groups hold no
// stamp, so they live in the bottom shard by convention.
func (b *Batch) InsertAbsentXTuple(name string) error {
	c := b.c
	if err := checkReserved(name, nil); err != nil {
		return err
	}
	if nullID := "null:" + name; c.idLive(nullID) {
		return fmt.Errorf("tuple %q: %w", nullID, uncertain.ErrDuplicateID)
	}
	s := c.placeGroup(0, nil)
	if err := c.onShard(s, func(sb shardBatch) error { return sb.InsertAbsentXTuple(name) }); err != nil {
		b.mutated = true
		return c.poison(err)
	}
	c.dir.append(&entry{shard: s})
	b.mutated = true
	b.ops = append(b.ops, metaOp{Op: "abs", Shard: s})
	return nil
}

// DeleteXTuple deletes the x-tuple at global index l.
func (b *Batch) DeleteXTuple(l int) error {
	c := b.c
	if l < 0 || l >= len(c.dir.entries) {
		return fmt.Errorf("index %d of %d: %w", l, len(c.dir.entries), uncertain.ErrBadGroupIndex)
	}
	if len(c.dir.entries) == 1 {
		return uncertain.ErrLastGroup
	}
	e := c.dir.entries[l]
	if err := c.onShard(e.shard, func(sb shardBatch) error { return sb.DeleteXTuple(e.local) }); err != nil {
		b.mutated = true
		return c.poison(err)
	}
	c.dir.removeGlobal(l)
	b.mutated = true
	b.ops = append(b.ops, metaOp{Op: "del", Index: l})
	return nil
}

// Reweight replaces the existential probabilities of the x-tuple at
// global index l. Only the shard holding the group commits; a null the
// reweight materializes is first checked against every shard's live ID
// index, after the validation the unsharded reweight runs first.
func (b *Batch) Reweight(l int, probs []float64) error {
	c := b.c
	if l < 0 || l >= len(c.dir.entries) {
		return fmt.Errorf("index %d of %d: %w", l, len(c.dir.entries), uncertain.ErrBadGroupIndex)
	}
	e := c.dir.entries[l]
	newNull, err := uncertain.CheckReweight(c.shards[e.shard].live().GroupAt(e.local), probs)
	if err != nil {
		return err
	}
	if newNull != "" && c.idLive(newNull) {
		return fmt.Errorf("tuple %q: %w", newNull, uncertain.ErrDuplicateID)
	}
	if err := c.onShard(e.shard, func(sb shardBatch) error { return sb.Reweight(e.local, probs) }); err != nil {
		if isStoreFailure(err) {
			b.mutated = true
			return c.poison(err)
		}
		return err // validation; the shard database is unchanged
	}
	b.mutated = true
	return nil
}

// Collapse resolves the x-tuple at global index l to alternative choice.
func (b *Batch) Collapse(l, choice int) error {
	c := b.c
	if l < 0 || l >= len(c.dir.entries) {
		return fmt.Errorf("index %d of %d: %w", l, len(c.dir.entries), uncertain.ErrBadGroupIndex)
	}
	e := c.dir.entries[l]
	if err := c.onShard(e.shard, func(sb shardBatch) error { return sb.Collapse(e.local, choice) }); err != nil {
		if isStoreFailure(err) {
			b.mutated = true
			return c.poison(err)
		}
		return err // validation (bad choice); unchanged
	}
	e.collapse(choice)
	b.mutated = true
	b.ops = append(b.ops, metaOp{Op: "clp", Index: l, Choice: choice})
	return nil
}

// isStoreFailure distinguishes a journal write failure (the shard store
// poisons itself; the cluster must too) from a validation rejection that
// left the shard untouched.
func isStoreFailure(err error) bool {
	return errors.Is(err, store.ErrPoisoned)
}

// Single-mutation conveniences, mirroring the unsharded database's.

// InsertXTuple is Batch.InsertXTuple as a single-mutation commit.
func (c *Cluster) InsertXTuple(name string, tuples ...uncertain.Tuple) error {
	return c.Batch(func(b *Batch) error { return b.InsertXTuple(name, tuples...) })
}

// InsertAbsentXTuple is Batch.InsertAbsentXTuple as a single-mutation commit.
func (c *Cluster) InsertAbsentXTuple(name string) error {
	return c.Batch(func(b *Batch) error { return b.InsertAbsentXTuple(name) })
}

// DeleteXTuple is Batch.DeleteXTuple as a single-mutation commit.
func (c *Cluster) DeleteXTuple(l int) error {
	return c.Batch(func(b *Batch) error { return b.DeleteXTuple(l) })
}

// Reweight is Batch.Reweight as a single-mutation commit.
func (c *Cluster) Reweight(l int, probs []float64) error {
	return c.Batch(func(b *Batch) error { return b.Reweight(l, probs) })
}

// Collapse is Batch.Collapse as a single-mutation commit.
func (c *Cluster) Collapse(l, choice int) error {
	return c.Batch(func(b *Batch) error { return b.Collapse(l, choice) })
}

// idLive reports whether any shard holds a live tuple with the given ID.
// Each shard database keeps an O(1) ID index that is current under the
// cluster writer lock, so the cluster-wide duplicate check asks the
// shards instead of keeping a copy.
func (c *Cluster) idLive(id string) bool {
	for _, sh := range c.shards {
		if sh.live().TupleByID(id) != nil {
			return true
		}
	}
	return false
}

// shardBatch is the mutation surface of one shard's batch: *store.Batch
// when the shard is journaled, *uncertain.Batch otherwise.
type shardBatch interface {
	InsertXTupleSeq(name string, seqs []int, tuples ...uncertain.Tuple) error
	InsertAbsentXTuple(name string) error
	DeleteXTuple(l int) error
	Reweight(l int, probs []float64) error
	Collapse(l, choice int) error
}

// onShard commits op as one batch on shard s: through the journaling
// store when persisted, on the shard database directly otherwise.
func (c *Cluster) onShard(s int, op func(shardBatch) error) error {
	sh := c.shards[s]
	if sh.sdb != nil {
		return sh.sdb.Batch(func(b *store.Batch) error { return op(b) })
	}
	return sh.db.Batch(func(b *uncertain.Batch) error { return op(b) })
}
