// Package memo is the per-(version, k) evaluation memo shared by the
// unsharded Engine and the shard coordinator: one PSR pass and the TP
// evaluation derived from it per query size k (the computation sharing
// of Section IV-C), carried across database versions by resuming the
// memoized pass from a dirty-rank watermark (topkq.Resume) instead of
// recomputing it.
//
// The memo is generic over the pinned view it reads: an unsharded
// snapshot epoch, or the coordinator's merge over one cluster epoch. The
// two differ only in how the watermark between two views is found, which
// the owner supplies as a Carry function.
package memo

import (
	"context"
	"sync"

	"github.com/probdb/topkclean/internal/quality"
	"github.com/probdb/topkclean/internal/topkq"
)

// View is one pinned, immutable version of a database as a scan source.
type View interface {
	topkq.Source
	Version() uint64
}

// Carry finds how an entry computed on prior (with rank info info) carries
// to the newer view cur. wm is a dirty-rank watermark for the changes
// between them, as topkq.Resume requires: every rank position strictly
// below it holds the same alternative, with the same probability and
// x-tuple, in both. stable reports that every x-tuple of info's processed
// prefix kept its group index, so per-group results can be shared. ok is
// false when no watermark can be given; the entry is then recomputed.
type Carry[V View] func(cur, prior V, info *topkq.RankInfo) (wm int, stable, ok bool)

// Memo memoizes one State per query size k. It is safe for concurrent
// use.
type Memo[V View] struct {
	pin   func() (V, error)
	carry Carry[V]

	mu     sync.Mutex        // guards the states map itself
	states map[int]*entry[V] // memoized state per query size k
}

// New returns an empty memo. pin returns the current view; it is called
// under the entry lock of the k being queried, so an entry's versions
// advance monotonically whenever the views pin publishes do.
func New[V View](pin func() (V, error), carry Carry[V]) *Memo[V] {
	return &Memo[V]{pin: pin, carry: carry, states: make(map[int]*entry[V])}
}

// entry is one k's memoization slot. Its own mutex makes the first
// computation single-flight per k while letting passes for distinct k run
// concurrently. Keying the map by k alone (the version lives inside the
// state and is migrated on every version change) keeps the map's size
// bounded by the number of distinct query sizes ever asked for, no matter
// how many mutations a session spans.
type entry[V View] struct {
	mu sync.Mutex
	st *State[V] // nil until computed; guarded by mu
}

// State is the shared per-(version, k) computation: one PSR pass over
// View and the TP evaluation derived from it. A light state (top-k
// probabilities only, all quality and cleaning need) is upgraded in place
// to a full one (rank-h probabilities for U-kRanks) the first time one is
// asked for. The threshold-independent answers are computed once, on
// first use.
type State[V View] struct {
	View V
	Info *topkq.RankInfo
	Eval *quality.Evaluation
	full bool

	ansOnce sync.Once
	uk      []topkq.RankedAnswer
	gtk     []topkq.ScoredAnswer
	ansErr  error
}

// Answers returns the U-kRanks and Global-topk answers of a full state,
// computing them on first use.
func (st *State[V]) Answers() ([]topkq.RankedAnswer, []topkq.ScoredAnswer, error) {
	st.ansOnce.Do(func() {
		st.uk, st.ansErr = topkq.UKRanks(st.View, st.Info)
		if st.ansErr == nil {
			st.gtk = topkq.GlobalTopK(st.View, st.Info)
		}
	})
	return st.uk, st.gtk, st.ansErr
}

// Get returns the memoized state for (current version, k), computing it
// on first use. needFull requests the rank-h probabilities; a light state
// is upgraded in place, keeping its evaluation (the top-k probabilities,
// and hence the TP evaluation, are identical in both passes), so callers
// holding the evaluation keep a valid pointer across the upgrade.
//
// When the view's version moved past the entry, the entry is not dropped:
// it resumes the memoized pass from the Carry watermark (keeping it
// wholesale when every change lies at or below the scan's early-
// termination point) and re-derives the TP evaluation from the resumed
// info, bit-identical to a from-scratch pass. Only when Carry cannot
// answer, or the resume fails (e.g. k now exceeds the x-tuple count), is
// the entry recomputed from scratch.
func (m *Memo[V]) Get(ctx context.Context, k int, needFull bool) (*State[V], error) {
	m.mu.Lock()
	ent, ok := m.states[k]
	if !ok {
		ent = &entry[V]{}
		m.states[k] = ent
	}
	m.mu.Unlock()

	ent.mu.Lock()
	defer ent.mu.Unlock()
	view, err := m.pin()
	if err != nil {
		return nil, err
	}
	if ent.st != nil && ent.st.View.Version() != view.Version() {
		ent.st = m.migrate(ent.st, view)
	}
	if ent.st != nil && (ent.st.full || !needFull) {
		return ent.st, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ent.st != nil {
		// Light → full upgrade on the state's own view. The evaluation
		// keeps pointing at the light info it was computed from
		// (repointing it could race with a concurrent planner reading
		// Eval.Info; both infos agree on every top-k probability).
		info, err := topkq.RankProbabilities(ent.st.View, k)
		if err != nil {
			return nil, err
		}
		ent.st.Info = info
		ent.st.full = true
		return ent.st, nil
	}
	var info *topkq.RankInfo
	if needFull {
		info, err = topkq.RankProbabilities(view, k)
	} else {
		info, err = topkq.TopKProbabilities(view, k)
	}
	if err != nil {
		return nil, err
	}
	ev, err := quality.TPFromInfo(view, info)
	if err != nil {
		return nil, err
	}
	ent.st = &State[V]{View: view, Info: info, Eval: ev, full: needFull}
	return ent.st, nil
}

// migrate carries st to view: it resumes the PSR pass from the Carry
// watermark and carries or re-derives the TP evaluation. The result is a
// new State (older results keep pointing at the superseded, still
// consistent one); nil means the caller recomputes from scratch.
func (m *Memo[V]) migrate(st *State[V], view V) *State[V] {
	prior := st.Info
	if prior.K > view.NumGroups() {
		return nil // the resume must fail; recomputing reports why
	}
	wm, stable, ok := m.carry(view, st.View, prior)
	if !ok {
		return nil
	}
	info, err := topkq.Resume(view, prior, wm)
	if err != nil {
		return nil
	}
	// A pure cache hit with stable numbering reuses the evaluation
	// outright: S, Omega and the sparse gains depend on the unchanged
	// prefix alone, and an x-tuple appended or dropped below the
	// termination point has zero gain, so there is no entry to add or
	// remove.
	var ev *quality.Evaluation
	if wm >= prior.Processed && prior.Processed < prior.N && stable {
		ev = st.Eval.Carry(info, view.NumGroups())
	} else if ev, err = quality.TPFromInfo(view, info); err != nil {
		return nil
	}
	return &State[V]{View: view, Info: info, Eval: ev, full: info.HasRho()}
}

// Invalidate drops every memoized state.
func (m *Memo[V]) Invalidate() {
	m.mu.Lock()
	m.states = make(map[int]*entry[V])
	m.mu.Unlock()
}

// Len returns the number of query sizes with a memo slot.
func (m *Memo[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.states)
}

// Peek returns the state memoized for k as it stands, without pinning,
// migrating or computing anything; nil when there is none.
func (m *Memo[V]) Peek(k int) *State[V] {
	m.mu.Lock()
	ent := m.states[k]
	m.mu.Unlock()
	if ent == nil {
		return nil
	}
	ent.mu.Lock()
	defer ent.mu.Unlock()
	return ent.st
}
