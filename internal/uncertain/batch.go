package uncertain

import "math"

// Batch groups several mutations into one commit. The mutations are
// applied in order as they are issued, and the commit bookkeeping — the
// version bump and the dirty-rank watermark record — happens once, on
// return from Database.Batch, with the watermarks of all mutations merged
// into one. A burst of updates therefore leaves consumers one version
// step (and one DirtySince answer, hence at most one incremental scan
// resume) to catch up on, instead of one per mutation. Database.Batch is
// the database's only commit path: the standalone mutations
// (Database.InsertXTuple and the rest) are one-op batches.
//
// Use it through Database.Batch:
//
//	err := db.Batch(func(b *uncertain.Batch) error {
//		if err := b.InsertXTuple("s9", readings...); err != nil {
//			return err
//		}
//		return b.Reweight(3, revised)
//	})
//
// A Batch is only valid inside the callback; using it afterwards panics.
type Batch struct {
	db        *Database
	watermark int
	dirty     bool
}

// Batch runs fn with a Batch whose mutation methods mirror the database's
// (InsertXTuple, InsertAbsentXTuple, DeleteXTuple, Reweight, Collapse),
// then commits once: one version bump, one watermark log entry, one
// published epoch — and one copy of each rank-order and x-tuple-vector
// node the batch writes, however many splices touch it.
//
// Each mutation validates before it changes anything, so a failed
// mutation leaves the database as it was just before that call. There is
// no rollback across mutations: if fn returns an error after some
// mutations succeeded, those stay applied, the commit still runs (the
// database remains fully consistent), and the error is returned. A batch
// in which no mutation succeeded does not bump the version.
//
// Batch serializes against other mutations on the database's writer lock
// and publishes exactly one new epoch at commit, so snapshot readers
// (Database.Snapshot, and the Engine's queries) observe either none or all
// of the batch's mutations — never an intermediate state. Queries through
// snapshots may therefore run fully concurrently with a Batch. Tuple rank
// positions (Tuple.Index) stay valid between the batch's mutations: each
// splice keeps the homes they are read from current.
func (db *Database) Batch(fn func(*Batch) error) error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.frozen {
		return ErrFrozenSnapshot
	}
	if !db.built {
		return ErrNotBuilt
	}
	b := &Batch{db: db, watermark: math.MaxInt}
	err := fn(b)
	if b.dirty {
		db.finishMutation(b.watermark)
	}
	b.db = nil // poison: a Batch must not outlive its callback
	return err
}

// InsertXTuple is Database.InsertXTuple under the batch's single commit.
func (b *Batch) InsertXTuple(name string, tuples ...Tuple) error {
	wm, err := b.db.insertXTuple(name, tuples, nil)
	return b.note(wm, err)
}

// InsertAbsentXTuple is Database.InsertAbsentXTuple under the batch's
// single commit.
func (b *Batch) InsertAbsentXTuple(name string) error {
	wm, err := b.db.insertAbsentXTuple(name)
	return b.note(wm, err)
}

// DeleteXTuple is Database.DeleteXTuple under the batch's single commit.
func (b *Batch) DeleteXTuple(l int) error {
	wm, err := b.db.deleteXTuple(l)
	return b.note(wm, err)
}

// Reweight is Database.Reweight under the batch's single commit.
func (b *Batch) Reweight(l int, probs []float64) error {
	wm, err := b.db.reweight(l, probs)
	return b.note(wm, err)
}

// Collapse is Database.Collapse under the batch's single commit.
func (b *Batch) Collapse(l, choice int) error {
	wm, err := b.db.collapse(l, choice)
	return b.note(wm, err)
}

// note merges a successful mutation's watermark into the batch. Watermarks
// are positions in the rank array as it stood when each mutation ran;
// taking the minimum composes correctly because a mutation with watermark
// w leaves positions below w — and therefore any earlier mutation's clean
// prefix below min(w, w') — untouched.
func (b *Batch) note(wm int, err error) error {
	if err != nil {
		return err
	}
	if wm < b.watermark {
		b.watermark = wm
	}
	b.dirty = true
	return nil
}
