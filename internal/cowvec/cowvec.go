// Package cowvec is a persistent counted sequence: the one copy-on-write
// container behind the uncertain database's rank order and x-tuple vector
// and the shard coordinator's placement maps, where a writer publishes an
// immutable view of it once per commit.
//
// It is a B-tree. Leaves hold at most Width elements and branches at most
// Width kids, with the running element count of their kids (ends), so At
// is one count lookup per level and InsertAt and DeleteAt splice one leaf
// and fix the counts on its path. A node over Width splits in half (the
// root grows the tree a level); one under Width/4, the root excepted,
// merges with a neighbour and splits again if the two overfill a node.
// Appends leave every node but the last on a level half full, so the
// descent's guess at a kid, offset / (Width/2)^height, is usually exact.
//
// Copy-on-write: a node records the epoch that made it, and only that
// epoch writes it in place. Publish hands the root to a frozen view and
// starts a new epoch; the writer clones a node of an older epoch before
// its first write below it, so a commit copies only the paths it wrote.
//
// Homes: every node has a header (Home), shared with its clones, naming
// the writer's current clone, the parent's header and the node's index
// among the parent's kids. A sequence built with a place callback reports
// each element it puts in a leaf with the leaf's home, and Home.Index
// turns that back into the element's position. Homes are writer-epoch
// state, updated in place: only the writer reads them.
package cowvec

import (
	"errors"
	"fmt"
	"iter"
	"slices"
	"sort"
)

const (
	halfBits  = 5
	Width     = 2 << halfBits // the most elements of a leaf or kids of a branch
	low       = Width / 4     // the fewest a node other than the root holds
	maxHeight = 8             // a tree this high holds over 2^31 elements, more than int32 counts
)

// node is a leaf (kids == nil) or a branch. Its slices are immutable once
// an epoch after the one that made it has begun.
type node[T comparable] struct {
	home  *Home[T]
	epoch uint64
	ends  []int32    // branches: ends[j] = elements under kids[0..j]
	kids  []*node[T] // branches
	xs    []T        // leaves
	lent  bool       // ends is still the array of the node cloned
}

func (n *node[T]) leaf() bool { return n.kids == nil }

// counts returns n's ends for writing, first copying them if n still
// shares them with the node it was cloned from: a Set changes no count,
// so the branches on its path keep their ends.
func (n *node[T]) counts() []int32 {
	if n.lent {
		n.ends, n.lent = slices.Clone(n.ends), false
	}
	return n.ends
}

// size is what Width bounds: a leaf's elements or a branch's kids.
func (n *node[T]) size() int { return len(n.xs) + len(n.kids) }

// count is the number of elements under n.
func (n *node[T]) count() int {
	if n.leaf() {
		return len(n.xs)
	}
	return int(n.ends[len(n.ends)-1])
}

// slot returns the kid of branch n, at height h, that holds offset i, and
// i's offset in it (i == n.count() lands at the end of the last kid). An
// appended branch's kids hold (Width/2)^h each, so the guess is usually
// exact; a walk from it settles the rest.
func (n *node[T]) slot(i, h int) (int, int) {
	ends, j := n.ends, min(i>>(h*halfBits), len(n.ends)-1)
	for j > 0 && int(ends[j-1]) > i {
		j--
	}
	for int(ends[j]) <= i && j < len(ends)-1 {
		j++
	}
	if j == 0 {
		return 0, i
	}
	return j, i - int(ends[j-1])
}

// Home is the writer-epoch header one node shares with all its clones.
type Home[T comparable] struct {
	cur *node[T] // the writer's current clone
	up  *Home[T] // the parent's home; nil at the root
	pos int      // index among the parent's kids
}

// Index returns the writer's position of x, placed under this home, or -1
// if a Set replaced it: it scans the leaf and adds the counts before it
// on the path up.
func (h *Home[T]) Index(x T) int {
	i := slices.Index(h.cur.xs, x)
	if i < 0 {
		return -1
	}
	for ; h.up != nil; h = h.up {
		if h.pos > 0 {
			i += int(h.up.cur.ends[h.pos-1])
		}
	}
	return i
}

// Seq is held by value by its owner, so that Publish can hand a frozen view
// its own copy. The zero Seq is empty and untracked.
type Seq[T comparable] struct {
	root   *node[T]
	height int // branch levels above the leaves
	epoch  uint64
	place  func(T, *Home[T])
}

// Collect returns a sequence of a copy of xs, shaped as appends would
// leave it. place, if not nil, gets every element the sequence puts in a
// leaf (here, and on insert, set, split and merge) with the leaf's home.
func Collect[T comparable](xs []T, place func(T, *Home[T])) Seq[T] {
	s := Seq[T]{place: place}
	var lvl []*node[T]
	for run := range runs(xs) {
		lvl = append(lvl, &node[T]{xs: slices.Clone(run)})
	}
	for ; len(lvl) > 1; s.height++ {
		var up []*node[T]
		for kids := range runs(lvl) {
			p, total := &node[T]{kids: slices.Clone(kids)}, 0
			for _, c := range kids {
				total += c.count()
				p.ends = append(p.ends, int32(total))
			}
			up = append(up, p)
		}
		lvl = up
	}
	if len(lvl) == 1 {
		s.root = lvl[0]
		s.adopt(s.root, nil, 0)
	}
	return s
}

// runs yields xs cut as appends leave a level: runs of Width/2, then the
// rest. Nodes copy their runs: one shared array would keep every element
// a later write replaced alive.
func runs[E any](xs []E) iter.Seq[[]E] {
	return func(yield func([]E) bool) {
		for ; len(xs) > Width; xs = xs[Width/2:] {
			if !yield(xs[:Width/2]) {
				return
			}
		}
		if len(xs) > 0 {
			yield(xs)
		}
	}
}

// adopt gives n and the nodes below it homes and places the elements.
func (s *Seq[T]) adopt(n *node[T], up *Home[T], pos int) {
	n.home = &Home[T]{cur: n, up: up, pos: pos}
	for j, k := range n.kids {
		s.adopt(k, n.home, j)
	}
	for _, x := range n.xs {
		s.placed(x, n)
	}
}

// Len returns the number of elements.
func (s *Seq[T]) Len() int {
	if s.root == nil {
		return 0
	}
	return s.root.count()
}

// At returns element i, which must lie in [0, Len).
func (s *Seq[T]) At(i int) T {
	n := s.root
	for h := s.height; h > 0; h-- {
		var j int
		j, i = n.slot(i, h)
		n = n.kids[j]
	}
	return n.xs[i]
}

// Search returns the first position whose element satisfies pred, or Len
// if none does. pred must be false on a prefix of the sequence and true
// on the rest; the descent enters the last kid whose first element fails.
func (s *Seq[T]) Search(pred func(T) bool) int {
	pos, n := 0, s.root
	for h := s.height; h > 0; h-- {
		k := sort.Search(len(n.kids), func(k int) bool {
			c := n.kids[k]
			for !c.leaf() {
				c = c.kids[0]
			}
			return pred(c.xs[0])
		})
		if k > 1 {
			pos += int(n.ends[k-2])
		}
		n = n.kids[max(k-1, 0)]
	}
	if n == nil {
		return 0
	}
	return pos + sort.Search(len(n.xs), func(k int) bool { return pred(n.xs[k]) })
}

// Leaves yields each leaf's elements in order, not to be modified.
func (s *Seq[T]) Leaves() iter.Seq[[]T] {
	return func(yield func([]T) bool) {
		for n := range s.nodes() {
			if n.leaf() && !yield(n.xs) {
				return
			}
		}
	}
}

// All iterates the elements in index order.
func (s *Seq[T]) All() iter.Seq2[int, T] {
	return func(yield func(int, T) bool) {
		i := 0
		for xs := range s.Leaves() {
			for _, x := range xs {
				if !yield(i, x) {
					return
				}
				i++
			}
		}
	}
}

// Materialize returns the elements as one flat slice. O(Len).
func (s *Seq[T]) Materialize() []T { return slices.Concat(slices.Collect(s.Leaves())...) }

// Cursor walks the leaves of one Seq value, reading only the nodes that
// value reaches.
type Cursor[T comparable] struct {
	up     [maxHeight]*node[T] // up[h-1]: the branch at height h on the current path
	at     [maxHeight]int      // at[h-1]: the kid of up[h-1] the path takes
	height int
}

// Cursor returns the elements from position i to the end of i's leaf
// (none from Len on) and a cursor at the leaves after it.
func (s *Seq[T]) Cursor(i int) ([]T, Cursor[T]) {
	if i >= s.Len() {
		return nil, Cursor[T]{}
	}
	c, n, i := Cursor[T]{height: s.height}, s.root, max(i, 0)
	for h := s.height; h > 0; h-- {
		c.up[h-1] = n
		c.at[h-1], i = n.slot(i, h)
		n = n.kids[c.at[h-1]]
	}
	return n.xs[i:], c
}

// Next returns the next leaf's elements, not to be modified, or nil once
// the sequence is exhausted.
func (c *Cursor[T]) Next() []T {
	h := 1
	for h <= c.height && c.at[h-1]+1 == len(c.up[h-1].kids) {
		h++
	}
	if h > c.height {
		c.height = 0
		return nil
	}
	for c.at[h-1]++; h > 1; h-- {
		c.up[h-2], c.at[h-2] = c.up[h-1].kids[c.at[h-1]], 0
	}
	return c.up[0].kids[c.at[0]].xs
}

// newNode returns an empty node of this epoch with a fresh home.
func (s *Seq[T]) newNode(up *Home[T], pos int) *node[T] {
	n := &node[T]{epoch: s.epoch, home: &Home[T]{up: up, pos: pos}}
	n.home.cur = n
	return n
}

// clone returns n if this epoch made it, else a copy that n's home names
// as the writer's current clone.
func (s *Seq[T]) clone(n *node[T]) *node[T] {
	if n.epoch == s.epoch {
		return n
	}
	c := &node[T]{home: n.home, epoch: s.epoch, lent: true,
		ends: n.ends, kids: slices.Clone(n.kids), xs: slices.Clone(n.xs)}
	c.home.cur = c
	return c
}

func (s *Seq[T]) placed(x T, lf *node[T]) {
	if s.place != nil {
		s.place(x, lf.home)
	}
}

// Set replaces element i.
func (s *Seq[T]) Set(i int, x T) { s.edit(i, x, 0) }

// Append adds x as element Len.
func (s *Seq[T]) Append(x T) { s.edit(s.Len(), x, 1) }

// InsertAt inserts x as element i, shifting the elements from i on up one
// index; i must lie in [0, Len].
func (s *Seq[T]) InsertAt(i int, x T) { s.edit(i, x, 1) }

// DeleteAt removes element i, shifting the later elements down one index.
func (s *Seq[T]) DeleteAt(i int) { s.edit(i, *new(T), -1) }

// edit applies one write at position i (d = 1 inserts x, -1 deletes, 0
// sets) and then grows or sheds a level if the root needs it.
func (s *Seq[T]) edit(i int, x T, d int) {
	if s.root == nil {
		s.root = s.newNode(nil, 0)
	}
	s.root = s.clone(s.root)
	s.write(s.root, s.height, i, x, d)
	switch r := s.root; {
	case r.size() > Width:
		s.root = s.newNode(nil, 0)
		s.root.kids, s.root.ends = []*node[T]{r}, []int32{int32(r.count())}
		r.home.up = s.root.home
		s.split(s.root, 0)
		s.height++
	case r.size() == 0:
		s.root = nil
	case !r.leaf() && len(r.kids) == 1:
		s.root, s.root.home.up = r.kids[0], nil
		s.height--
	}
}

// write applies the edit at offset i under n, an owned node at height h,
// owning the path down; on the way up it adds d to the counts and restores
// the size bounds.
func (s *Seq[T]) write(n *node[T], h, i int, x T, d int) {
	if h == 0 {
		switch d {
		case 1:
			if i < len(n.xs) && len(n.xs) == cap(n.xs) {
				// A mid-leaf insert into a clone grows it by one size
				// class; appends grow twofold.
				n.xs = append(make([]T, 0, len(n.xs)+1), n.xs...)
			}
			n.xs = slices.Insert(n.xs, i, x)
		case -1:
			n.xs = slices.Delete(n.xs, i, i+1)
			return
		default:
			n.xs[i] = x
		}
		s.placed(x, n)
		return
	}
	j, off := n.slot(i, h)
	n.kids[j] = s.clone(n.kids[j])
	s.write(n.kids[j], h-1, off, x, d)
	for k := j; d != 0 && k < len(n.ends); k++ {
		n.counts()[k] += int32(d)
	}
	s.fix(n, j)
}

// fix restores the bounds of p's owned kid j: an underfull kid merges with
// a neighbour, and an overfull one (or merge) splits.
func (s *Seq[T]) fix(p *node[T], j int) {
	if p.kids[j].size() < low && len(p.kids) > 1 {
		j = min(j, len(p.kids)-2)
		s.merge(p, j)
	}
	if p.kids[j].size() > Width {
		s.split(p, j)
	}
}

// split moves the upper half of p's kid j, which the writer owns, into a
// new kid j+1. Both halves get arrays of their own size.
func (s *Seq[T]) split(p *node[T], j int) {
	a, b := p.kids[j], s.newNode(p.home, j+1)
	h := a.size() / 2
	if a.leaf() {
		a.xs, b.xs = slices.Clone(a.xs[:h]), slices.Clone(a.xs[h:])
		for _, x := range b.xs {
			s.placed(x, b)
		}
	} else {
		a.kids, b.kids = slices.Clone(a.kids[:h]), slices.Clone(a.kids[h:])
		a.ends, b.ends, a.lent = slices.Clone(a.ends[:h]), slices.Clone(a.ends[h:]), false
		for k := range b.ends {
			b.ends[k] -= a.ends[h-1]
		}
		s.renumber(b, 0)
	}
	p.kids = slices.Insert(p.kids, j+1, b)
	p.ends = slices.Insert(p.counts(), j, p.ends[j]-int32(b.count()))
	s.renumber(p, j+1)
}

// merge moves p's kid j+1 onto the end of kid j.
func (s *Seq[T]) merge(p *node[T], j int) {
	a, b := s.clone(p.kids[j]), p.kids[j+1]
	p.kids[j] = a
	if a.leaf() {
		a.xs = append(a.xs, b.xs...)
		for _, x := range b.xs {
			s.placed(x, a)
		}
	} else {
		base, seam := a.ends[len(a.ends)-1], len(a.kids)
		a.ends, a.kids = a.counts(), append(a.kids, b.kids...)
		for _, e := range b.ends {
			a.ends = append(a.ends, base+e)
		}
		s.renumber(a, seam)
	}
	p.kids = slices.Delete(p.kids, j+1, j+2)
	p.ends = slices.Delete(p.counts(), j, j+1)
	s.renumber(p, j+1)
}

// renumber points the homes of p's kids from k on at p and their index.
func (s *Seq[T]) renumber(p *node[T], k int) {
	for ; k < len(p.kids); k++ {
		p.kids[k].home.up, p.kids[k].home.pos = p.home, k
	}
}

// Publish returns the frozen view of the current state and starts a new
// epoch, from which every node is shared with the view. O(1).
func (s *Seq[T]) Publish() Seq[T] {
	view := Seq[T]{root: s.root, height: s.height, epoch: s.epoch}
	s.epoch++
	return view
}

// ErrCorrupt reports a violation found by Check or CheckIsolated.
var ErrCorrupt = errors.New("cowvec: sequence corrupt")

func corrupt(what string) error { return fmt.Errorf("%w: %s", ErrCorrupt, what) }

// nodes yields every node s reaches, in order, each before its kids, with
// its height.
func (s *Seq[T]) nodes() iter.Seq2[*node[T], int] {
	return func(yield func(*node[T], int) bool) {
		if s.root != nil {
			walk(s.root, s.height, yield)
		}
	}
}

func walk[T comparable](n *node[T], h int, yield func(*node[T], int) bool) bool {
	if !yield(n, h) {
		return false
	}
	for _, k := range n.kids {
		if !walk(k, h-1, yield) {
			return false
		}
	}
	return true
}

// Check validates the structure: leaves at height 0; no node reached twice
// or of a future epoch; every node at most Width and, but the root, at
// least Width/4 full (so no two neighbours anywhere fit in one node with
// one under Width/4); ends are running counts; slots past a leaf's length
// are zero. It reads only frozen state, so it is safe on published views.
func (s *Seq[T]) Check() error {
	var zero T
	seen := make(map[*node[T]]bool)
	for n, h := range s.nodes() {
		lo := low
		if n == s.root {
			lo = 1 + min(h, 1) // a root branch has two kids
		}
		switch {
		case seen[n]:
			return corrupt("node reached twice")
		case n.epoch > s.epoch:
			return corrupt("node stamped with a future epoch")
		case n.leaf() != (h == 0) || h > maxHeight:
			return corrupt("leaf at the wrong height")
		case n.size() < lo || n.size() > Width:
			return corrupt("node underfull or overfull")
		case len(n.ends) != len(n.kids):
			return corrupt("counts and kids differ in length")
		}
		seen[n] = true
		if slices.ContainsFunc(n.xs[len(n.xs):cap(n.xs)], func(x T) bool { return x != zero }) {
			return corrupt("slot set past a leaf's length")
		}
		total := 0
		for k, c := range n.kids {
			if total += c.count(); int(n.ends[k]) != total {
				return corrupt("counts out of step with the kids")
			}
		}
	}
	return nil
}

// CheckIsolated reports whether the published view is safe from the writer
// s: the view reaches no node that s may write in place.
func (s *Seq[T]) CheckIsolated(view *Seq[T]) error {
	for n := range view.nodes() {
		if n.epoch == s.epoch {
			return corrupt("view shares a node the writer may write in place")
		}
	}
	return nil
}
