package shard

import (
	"fmt"

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
// bump, one journal record, one published epoch. Semantics mirror the
// unsharded Batch: mutations apply in order, a failed mutation leaves the
// cluster as it was just before that call, successful ones stay applied,
// and a batch with no successful mutation bumps nothing. A durable
// cluster collects the successful mutations as store ops in global group
// indices, the record its journal appends.
type Batch struct {
	c       *Cluster
	mutated bool
	ops     []store.Op
}

// Batch runs fn against the cluster under the writer lock and commits
// once. A durable commit is visible only once its record is appended and
// synced: if the journal fails, the cluster is read-only from then on and
// readers keep the last durable epoch. See Batch (the type) for the rest.
func (c *Cluster) Batch(fn func(*Batch) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("shard: cluster is closed")
	}
	if c.j != nil {
		if err := c.j.Err(); err != nil {
			return fmt.Errorf("%w: %w", ErrPoisoned, err)
		}
	}
	b := &Batch{c: c}
	err := fn(b)
	b.c = nil // poison: a Batch must not outlive its callback
	if !b.mutated {
		return err
	}
	c.version++
	if c.j != nil {
		if jerr := c.j.Append(store.Record{Version: c.version, Op: "mutate", Ops: b.ops}); jerr != nil {
			return fmt.Errorf("%w: %w", ErrPoisoned, jerr)
		}
	}
	c.publishLocked()
	return err
}

// done records one successful mutation, and its op when journaled.
func (b *Batch) done(op store.Op) {
	b.mutated = true
	if b.c.j != nil {
		b.ops = append(b.ops, op)
	}
}

// InsertXTuple inserts a new x-tuple on the shard place picks for it.
// The whole validation — the reserved names, then the unsharded insert's
// check (uncertain.CheckInsert) against every shard's live ID index —
// happens before a stamp is drawn or any shard is touched.
func (b *Batch) InsertXTuple(name string, tuples ...uncertain.Tuple) error {
	c := b.c
	if err := checkReserved(name, tuples); err != nil {
		return err
	}
	if _, err := uncertain.CheckInsert(name, tuples, c.rank, c.idLive); err != nil {
		return err
	}

	// Validated; stamp, place, insert.
	seqs := make([]int, len(tuples))
	for i := range seqs {
		seqs[i] = c.nextGseq + i
	}
	j := c.placeGroup(0, seqs)
	if err := c.shards[j].db.Batch(func(sb *uncertain.Batch) error { return sb.InsertXTupleSeq(name, seqs, tuples...) }); err != nil {
		return err // the stamps stay undrawn
	}
	c.nextGseq += len(seqs)
	c.dir.append(j)
	b.done(store.Op{Op: "insert", Name: name, Tuples: store.OpTuples(tuples)})
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
	if err := c.shards[s].db.InsertAbsentXTuple(name); err != nil {
		return err
	}
	c.dir.append(s)
	b.done(store.Op{Op: "insert_absent", Name: name})
	return nil
}

// DeleteXTuple deletes the x-tuple at global index l.
func (b *Batch) DeleteXTuple(l int) error {
	c := b.c
	if l < 0 || l >= c.dir.view.Len() {
		return fmt.Errorf("index %d of %d: %w", l, c.dir.view.Len(), uncertain.ErrBadGroupIndex)
	}
	if c.dir.view.Len() == 1 {
		return uncertain.ErrLastGroup
	}
	s, local := c.dir.at(l)
	if err := c.shards[s].db.DeleteXTuple(local); err != nil {
		return err
	}
	c.dir.removeGlobal(l)
	b.done(store.Op{Op: "delete", Group: l})
	return nil
}

// Reweight replaces the existential probabilities of the x-tuple at
// global index l. Only the shard holding the group commits, after the
// unsharded reweight's check (uncertain.CheckReweight) has run against
// every shard's live ID index, for a null the reweight materializes.
func (b *Batch) Reweight(l int, probs []float64) error {
	c := b.c
	if l < 0 || l >= c.dir.view.Len() {
		return fmt.Errorf("index %d of %d: %w", l, c.dir.view.Len(), uncertain.ErrBadGroupIndex)
	}
	s, local := c.dir.at(l)
	if _, err := uncertain.CheckReweight(c.shards[s].db.GroupAt(local), probs, c.idLive); err != nil {
		return err
	}
	if err := c.shards[s].db.Reweight(local, probs); err != nil {
		return err
	}
	b.done(store.Op{Op: "reweight", Group: l, Probs: append([]float64(nil), probs...)})
	return nil
}

// Collapse resolves the x-tuple at global index l to alternative choice.
func (b *Batch) Collapse(l, choice int) error {
	c := b.c
	if l < 0 || l >= c.dir.view.Len() {
		return fmt.Errorf("index %d of %d: %w", l, c.dir.view.Len(), uncertain.ErrBadGroupIndex)
	}
	s, local := c.dir.at(l)
	if err := c.shards[s].db.Collapse(local, choice); err != nil {
		return err // a bad choice; unchanged
	}
	b.done(store.Op{Op: "collapse", Group: l, Choice: choice})
	return nil
}

// idLive reports whether any shard holds a live tuple with the given ID.
// Each shard database keeps an O(1) ID index that is current under the
// cluster writer lock, so the cluster-wide duplicate check asks the
// shards instead of keeping a copy.
func (c *Cluster) idLive(id string) bool {
	for _, sh := range c.shards {
		if sh.db.TupleByID(id) != nil {
			return true
		}
	}
	return false
}
