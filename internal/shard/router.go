package shard

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/probdb/topkclean/internal/store"
	"github.com/probdb/topkclean/internal/uncertain"
)

// key is a real alternative's global rank key: the total order ranksAbove
// restricted to real tuples, with the global sequence stamp as the
// score-tie break. Nulls have no key; they always rank below every real.
type key struct {
	score float64
	seq   int
}

// above reports whether a ranks strictly above b. Stamps are unique, so
// this is a strict total order on live keys.
func above(a, b key) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.seq < b.seq
}

// shardMinKey returns the lowest real key held by shard s, if any.
func (c *Cluster) shardMinKey(s int) (key, bool) {
	db := c.shards[s].live()
	nr := db.NumRealTuples()
	if nr == 0 {
		return key{}, false
	}
	t := db.AtRank(nr - 1) // reals occupy ranks [0, nr)
	e := c.dir.locals[s][t.Group-1]
	return key{score: t.Score, seq: e.gseqs[realIndexOf(c.shards[s].live(), e, t)]}, true
}

// realIndexOf returns t's index within its group's RealTuples.
func realIndexOf(db *uncertain.Database, e *entry, t *uncertain.Tuple) int {
	for i, rt := range db.GroupAt(e.local).RealTuples() {
		if rt == t {
			return i
		}
	}
	panic("shard: tuple not in its directory group") // unreachable: directory and shard agree
}

// route picks the shard for a new group whose top real key is topKey: the
// first non-empty shard whose range reaches down to it; below every
// non-empty shard, the next empty shard if one exists (keeping ranges
// spread) or the bottom non-empty one.
func (c *Cluster) route(topKey key) int {
	last := -1
	for s := range c.shards {
		mk, ok := c.shardMinKey(s)
		if !ok {
			continue
		}
		if above(topKey, mk) {
			return s
		}
		last = s
	}
	if last < 0 {
		return 0 // every shard empty
	}
	if last+1 < len(c.shards) {
		return last + 1
	}
	return last
}

// pullUps computes the closure of groups in shards below j holding any
// real key above kmin — the keys a group inserted into shard j with
// bottom key kmin would otherwise straddle. Moving a group can lower the
// boundary further (its own bottom key), so the scan repeats until no
// shard below holds a key above the final boundary. Returns global group
// indices in ascending order; global indices are stable across the
// subsequent moves.
func (c *Cluster) pullUps(j int, kmin key) []int {
	if j >= len(c.shards)-1 {
		return nil
	}
	moved := make(map[int]bool)
	var moves []int
	for again := true; again; {
		again = false
		for s := j + 1; s < len(c.shards); s++ {
			cur := c.shards[s].live().CursorAt(0)
			for {
				t := cur.Next()
				if t == nil || t.Null {
					break // reals exhausted; keys only descend from here
				}
				e := c.dir.locals[s][t.Group-1]
				if moved[e.global] {
					continue // already claimed; its tuples still sit here until applied
				}
				tk := key{score: t.Score, seq: e.gseqs[realIndexOf(c.shards[s].live(), e, t)]}
				if !above(tk, kmin) {
					break // shard rank order: every later real is lower still
				}
				moved[e.global] = true
				moves = append(moves, e.global)
				if bk, ok := c.groupBottomKey(e); ok && above(kmin, bk) {
					kmin = bk
					again = true // the boundary dropped; rescan lower shards
				}
			}
		}
	}
	sort.Ints(moves)
	return moves
}

// groupBottomKey returns the lowest real key of the group at entry e.
func (c *Cluster) groupBottomKey(e *entry) (key, bool) {
	x := c.shards[e.shard].live().GroupAt(e.local)
	reals := x.RealTuples()
	if len(reals) == 0 {
		return key{}, false
	}
	bk := key{score: reals[0].Score, seq: e.gseqs[0]}
	for i := 1; i < len(reals); i++ {
		k := key{score: reals[i].Score, seq: e.gseqs[i]}
		if above(bk, k) {
			bk = k
		}
	}
	return bk, true
}

// moveGroup rebalances the group at global index gi into shard `to`:
// delete from its current shard, re-insert with preserved stamps. The
// re-materialized null probability is the same Kahan sum over the same
// probabilities in the same order, so the move is answer-invisible.
func (c *Cluster) moveGroup(gi, to int, b *Batch) error {
	e := c.dir.entries[gi]
	from := e.shard
	x := c.shards[from].live().GroupAt(e.local)
	name := x.Name
	reals := x.RealTuples()
	specs := make([]uncertain.Tuple, len(reals))
	for i, t := range reals {
		specs[i] = uncertain.Tuple{ID: t.ID, Attrs: append([]float64(nil), t.Attrs...), Prob: t.Prob}
	}
	seqs := append([]int(nil), e.gseqs...)
	if err := c.shardDelete(from, e.local); err != nil {
		return c.poison(err)
	}
	if err := c.shardInsertSeq(to, name, seqs, specs); err != nil {
		return c.poison(err)
	}
	c.dir.move(gi, to)
	b.ops = append(b.ops, metaOp{Op: "mov", Index: gi, To: to})
	return nil
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

// InsertXTuple inserts a new x-tuple, routed by its top-ranked
// alternative's key, rebalancing lower shards as needed. Validation — in
// the unsharded insert's order, with its errors — happens entirely before
// any shard is touched, because a rebalance move is not undoable.
func (b *Batch) InsertXTuple(name string, tuples ...uncertain.Tuple) error {
	c := b.c
	if err := checkReserved(name, tuples); err != nil {
		return err
	}
	if len(tuples) == 0 {
		return fmt.Errorf("x-tuple %q: %w", name, uncertain.ErrEmptyXTuple)
	}
	scores := make([]float64, len(tuples))
	for i := range tuples {
		scores[i] = c.rank(tuples[i].Attrs)
		if math.IsNaN(scores[i]) {
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
		if seen[id] {
			return fmt.Errorf("tuple %q: %w", id, uncertain.ErrDuplicateID)
		}
		if _, live := c.ids[id]; live {
			return fmt.Errorf("tuple %q: %w", id, uncertain.ErrDuplicateID)
		}
		seen[id] = true
	}

	// Validated; stamp, route, rebalance, insert.
	seqs := make([]int, len(tuples))
	for i := range seqs {
		seqs[i] = c.nextGseq
		c.nextGseq++
	}
	topKey := key{score: scores[0], seq: seqs[0]}
	kmin := topKey
	for i := 1; i < len(tuples); i++ {
		ki := key{score: scores[i], seq: seqs[i]}
		if above(ki, topKey) {
			topKey = ki
		}
		if above(kmin, ki) {
			kmin = ki
		}
	}
	j := c.route(topKey)
	for _, gi := range c.pullUps(j, kmin) {
		if err := c.moveGroup(gi, j, b); err != nil {
			b.mutated = true
			return err
		}
	}
	if err := c.shardInsertSeq(j, name, seqs, tuples); err != nil {
		b.mutated = true
		return c.poison(err)
	}
	c.dir.append(&entry{shard: j, gseqs: seqs})
	for _, id := range ids {
		c.ids[id] = struct{}{}
	}
	b.mutated = true
	b.ops = append(b.ops, metaOp{Op: "ins", Shard: j, Gseqs: seqs})
	return nil
}

// InsertAbsentXTuple inserts an absent x-tuple. Absent groups hold no
// real key, so they live in the bottom shard by convention.
func (b *Batch) InsertAbsentXTuple(name string) error {
	c := b.c
	if name == sentinelName {
		return fmt.Errorf("%w: %q", ErrReservedName, name)
	}
	nullID := "null:" + name
	if _, live := c.ids[nullID]; live {
		return fmt.Errorf("tuple %q: %w", nullID, uncertain.ErrDuplicateID)
	}
	s := len(c.shards) - 1
	if err := c.shardInsertAbsent(s, name); err != nil {
		b.mutated = true
		return c.poison(err)
	}
	c.dir.append(&entry{shard: s})
	c.ids[nullID] = struct{}{}
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
	x := c.shards[e.shard].live().GroupAt(e.local)
	gone := make([]string, 0, len(x.Tuples))
	for _, t := range x.Tuples {
		gone = append(gone, t.ID)
	}
	if err := c.shardDelete(e.shard, e.local); err != nil {
		b.mutated = true
		return c.poison(err)
	}
	c.dir.removeGlobal(l)
	for _, id := range gone {
		delete(c.ids, id)
	}
	b.mutated = true
	b.ops = append(b.ops, metaOp{Op: "del", Index: l})
	return nil
}

// Reweight replaces the existential probabilities of the x-tuple at
// global index l. Scores (and hence keys, and hence placement) are
// unchanged; only the shard holding the group commits.
func (b *Batch) Reweight(l int, probs []float64) error {
	c := b.c
	if l < 0 || l >= len(c.dir.entries) {
		return fmt.Errorf("index %d of %d: %w", l, len(c.dir.entries), uncertain.ErrBadGroupIndex)
	}
	e := c.dir.entries[l]
	if err := c.shardReweight(e.shard, e.local, probs); err != nil {
		if isStoreFailure(err) {
			b.mutated = true
			return c.poison(err)
		}
		return err // validation; the shard database is unchanged
	}
	x := c.shards[e.shard].live().GroupAt(e.local)
	nullID := "null:" + x.Name
	if x.NullTuple() != nil {
		c.ids[nullID] = struct{}{}
	} else {
		delete(c.ids, nullID)
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
	x := c.shards[e.shard].live().GroupAt(e.local)
	var dropped []string
	for i, t := range x.Tuples {
		if i != choice {
			dropped = append(dropped, t.ID)
		}
	}
	nReals := len(x.RealTuples())
	if err := c.shardCollapse(e.shard, e.local, choice); err != nil {
		if isStoreFailure(err) {
			b.mutated = true
			return c.poison(err)
		}
		return err // validation (bad choice); unchanged
	}
	if choice < nReals {
		e.gseqs = []int{e.gseqs[choice]}
	} else {
		e.gseqs = nil // resolved to the null: certainly absent
	}
	for _, id := range dropped {
		delete(c.ids, id)
	}
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

// Per-shard mutation dispatch: through the journaling store when
// persisted, directly otherwise.

func (c *Cluster) shardInsertSeq(s int, name string, seqs []int, tuples []uncertain.Tuple) error {
	sh := c.shards[s]
	if sh.sdb != nil {
		return sh.sdb.Batch(func(sb *store.Batch) error { return sb.InsertXTupleSeq(name, seqs, tuples...) })
	}
	return sh.db.InsertXTupleSeq(name, seqs, tuples...)
}

func (c *Cluster) shardInsertAbsent(s int, name string) error {
	sh := c.shards[s]
	if sh.sdb != nil {
		return sh.sdb.InsertAbsentXTuple(name)
	}
	return sh.db.InsertAbsentXTuple(name)
}

func (c *Cluster) shardDelete(s, local int) error {
	sh := c.shards[s]
	if sh.sdb != nil {
		return sh.sdb.DeleteXTuple(local)
	}
	return sh.db.DeleteXTuple(local)
}

func (c *Cluster) shardReweight(s, local int, probs []float64) error {
	sh := c.shards[s]
	if sh.sdb != nil {
		return sh.sdb.Reweight(local, probs)
	}
	return sh.db.Reweight(local, probs)
}

func (c *Cluster) shardCollapse(s, local, choice int) error {
	sh := c.shards[s]
	if sh.sdb != nil {
		return sh.sdb.Collapse(local, choice)
	}
	return sh.db.Collapse(local, choice)
}
