// Package cowvec is a chunked copy-on-write vector: the index-addressed
// container behind the uncertain database's x-tuple vector and the shard
// coordinator's placement maps, where a writer publishes immutable views
// of it once per commit.
//
// Element i lives at spine[i>>chunkBits], offset i&chunkMask, so At is two
// loads with no search. Every chunk but the last is full; slots at or
// beyond Len in the last chunk hold the zero value.
//
// Publish hands the current (spine, n) pair to a frozen view, marks the
// spine shared, and bumps the epoch. The writer's first write after that
// copies the spine (one pointer per chunk: ~3 KiB at 10^5 elements), and
// the first write into a chunk in an unpublished epoch clones that chunk
// (own; priv records the epoch that may write it in place). A commit thus
// copies the spine plus only the chunks it dirtied: an append touches the
// last chunk, a set touches one, and a delete at i shifts the chunks from
// i onward.
package cowvec

import (
	"errors"
	"fmt"
	"iter"
)

const (
	chunkBits = 8
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// chunk is one fixed run of slots. xs is immutable once the chunk is
// shared with a published view.
type chunk[T comparable] struct {
	xs   [chunkSize]T
	priv uint64 // epoch that may write this chunk in place
}

// Vec is held by value by its owner, so that Publish can hand a frozen
// view its own (spine, n) pair by struct copy. The zero Vec is empty and
// ready to use.
type Vec[T comparable] struct {
	spine  []*chunk[T]
	n      int
	epoch  uint64
	shared bool // spine is referenced by a published view
}

// Len returns the number of elements.
func (v *Vec[T]) Len() int { return v.n }

// At returns element i. O(1); i must lie in [0, Len).
func (v *Vec[T]) At(i int) T {
	return v.spine[i>>chunkBits].xs[i&chunkMask]
}

// All iterates the elements in index order.
func (v *Vec[T]) All() iter.Seq2[int, T] {
	return func(yield func(int, T) bool) {
		for i := 0; i < v.n; i++ {
			if !yield(i, v.At(i)) {
				return
			}
		}
	}
}

// own returns a writable chunk for spine position ci, copying the spine on
// the first write after a publish and cloning the chunk on its first write
// in the current epoch.
func (v *Vec[T]) own(ci int) *chunk[T] {
	v.ownSpine()
	c := v.spine[ci]
	if c.priv != v.epoch {
		c = &chunk[T]{xs: c.xs, priv: v.epoch}
		v.spine[ci] = c
	}
	return c
}

// ownSpine copies the spine if a published view still references it.
func (v *Vec[T]) ownSpine() {
	if v.shared {
		v.spine = append(make([]*chunk[T], 0, len(v.spine)+1), v.spine...)
		v.shared = false
	}
}

// Set replaces element i.
func (v *Vec[T]) Set(i int, x T) {
	v.own(i >> chunkBits).xs[i&chunkMask] = x
}

// Append adds x as element Len.
func (v *Vec[T]) Append(x T) {
	off := v.n & chunkMask
	if off == 0 {
		v.ownSpine()
		v.spine = append(v.spine, &chunk[T]{priv: v.epoch})
	}
	v.own(len(v.spine) - 1).xs[off] = x
	v.n++
}

// DeleteAt removes element i, shifting every later element down one
// index: O(1) chunks at the tail, O(Len - i) in general.
func (v *Vec[T]) DeleteAt(i int) {
	var zero T
	last := len(v.spine) - 1
	lo := i & chunkMask
	for ci := i >> chunkBits; ci <= last; ci++ {
		c := v.own(ci)
		copy(c.xs[lo:], c.xs[lo+1:])
		c.xs[chunkMask] = zero
		if ci < last {
			c.xs[chunkMask] = v.spine[ci+1].xs[0]
		}
		lo = 0
	}
	v.n--
	if v.n&chunkMask == 0 {
		v.spine[last] = nil
		v.spine = v.spine[:last]
	}
}

// Publish returns the frozen view of the current state and starts a new
// epoch: from here on every chunk, and the spine itself, is shared. O(1).
func (v *Vec[T]) Publish() Vec[T] {
	view := Vec[T]{spine: v.spine, n: v.n, epoch: v.epoch, shared: true}
	v.shared = true
	v.epoch++
	return view
}

// Materialize returns the elements as one flat slice. O(Len).
func (v *Vec[T]) Materialize() []T {
	out := make([]T, 0, v.n)
	for ci, c := range v.spine {
		end := chunkSize
		if ci == len(v.spine)-1 && v.n&chunkMask != 0 {
			end = v.n & chunkMask
		}
		out = append(out, c.xs[:end]...)
	}
	return out
}

// ErrCorrupt reports a structural violation found by Check or
// CheckIsolated.
var ErrCorrupt = errors.New("cowvec: vector corrupt")

func corrupt(what string) error { return fmt.Errorf("%w: %s", ErrCorrupt, what) }

// Check validates the structural invariants: the spine holds exactly the
// chunks Len needs, each at most once, no chunk is stamped with a future
// epoch, and the slots past Len hold the zero value. It reads only
// epoch-frozen state, so it is safe on published views.
func (v *Vec[T]) Check() error {
	if v.n < 0 || len(v.spine) != (v.n+chunkMask)>>chunkBits {
		return corrupt("spine length does not match the element count")
	}
	var zero T
	seen := make(map[*chunk[T]]bool, len(v.spine))
	for ci, c := range v.spine {
		if c == nil || seen[c] {
			return corrupt("chunk missing or repeated")
		}
		seen[c] = true
		if c.priv > v.epoch {
			return corrupt("chunk stamped with a future epoch")
		}
		for off, x := range c.xs {
			if ci<<chunkBits+off >= v.n && x != zero {
				return corrupt("slot set past the element count")
			}
		}
	}
	return nil
}

// CheckIsolated reports whether the published view is safe from the
// writer v: no chunk the view reaches is writable in place (its priv stamp
// is an older epoch), and the view does not share a spine the writer owns.
func (v *Vec[T]) CheckIsolated(view *Vec[T]) error {
	for _, c := range view.spine {
		if c.priv == v.epoch {
			return corrupt("view shares a chunk the writer may write in place")
		}
	}
	if !v.shared && len(v.spine) > 0 && len(view.spine) > 0 && &v.spine[0] == &view.spine[0] {
		return corrupt("view shares the writer's private spine")
	}
	return nil
}
