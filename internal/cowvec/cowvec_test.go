package cowvec

import (
	"fmt"
	"slices"
	"testing"
)

// elem is a tracked element: place keeps its back-pointer current.
type elem struct {
	home *Home[*elem]
	v    int
}

// FuzzSeq drives a tracked sequence with arbitrary append / insert / set /
// delete / publish histories, including runs long enough to split and
// merge branches and to grow and shrink the tree, and checks it against a
// plain slice after every step: the writer holds the model's elements,
// Check holds for the writer and every published view, every view still
// holds what the model held when it was published and shares no node the
// writer may write in place, a cursor from any position walks the model's
// suffix, every element's home gives its position back, and Collect
// builds a valid sequence of the model.
func FuzzSeq(f *testing.F) {
	f.Add([]byte{5, 63, 0, 0, 0, 0})                             // a full leaf, then its split
	f.Add([]byte{5, 255, 16})                                    // a branch split by appends
	f.Add([]byte{5, 64, 0, 4, 0, 0, 6, 0, 15, 3, 0, 0, 4, 0, 0}) // a leaf under Width/4 merged after a publish
	f.Add([]byte{5, 64, 1, 6, 0, 15, 6, 0, 15, 3, 0, 0})         // a merge that overfills and splits again
	f.Add([]byte{5, 255, 16, 4, 0, 0, 6, 255, 15, 6, 255, 15, 6, 255, 15, 6, 255, 15})
	f.Add([]byte{5, 63, 0, 7, 64, 32, 4, 0, 0, 7, 64, 32, 2, 0, 40, 3, 0, 1}) // splits in mid-leaf
	f.Add([]byte{0, 0, 0, 4, 0, 0, 3, 0, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0})       // down to empty and back
	f.Fuzz(func(t *testing.T, ops []byte) {
		const maxSteps, maxLen, maxViews = 64, 20_000, 8
		type view struct {
			s    Seq[*elem]
			want []*elem
		}
		var (
			s     = Collect(nil, func(e *elem, h *Home[*elem]) { e.home = h })
			model []*elem
			views []view
			next  int
		)
		fresh := func() *elem {
			next++
			return &elem{v: next}
		}
		for step := 0; len(ops) >= 3 && step < maxSteps; step++ {
			op, a, b := ops[0], int(ops[1]), int(ops[2])
			ops = ops[3:]
			at := func(n int) int { return (a<<8 | b) % n }
			switch op % 8 {
			case 0:
				x := fresh()
				s.Append(x)
				model = append(model, x)
			case 1:
				i, x := at(len(model)+1), fresh()
				s.InsertAt(i, x)
				model = slices.Insert(model, i, x)
			case 2:
				if len(model) > 0 {
					i, x := at(len(model)), fresh()
					s.Set(i, x)
					model[i] = x
				}
			case 3:
				if len(model) > 0 {
					i := at(len(model))
					s.DeleteAt(i)
					model = slices.Delete(model, i, i+1)
				}
			case 4:
				views = append(views, view{s: s.Publish(), want: slices.Clone(model)})
				if len(views) > maxViews {
					views = views[1:]
				}
			case 5:
				for k := 0; k < (a+1)*(b+1) && len(model) < maxLen; k++ {
					x := fresh()
					s.Append(x)
					model = append(model, x)
				}
			case 6: // a run of deletes at one position
				for k := 0; k < (a+1)*(b%16+1) && len(model) > 0; k++ {
					i := min(a*31, len(model)-1)
					s.DeleteAt(i)
					model = slices.Delete(model, i, i+1)
				}
			case 7: // a run of inserts at one position
				for k := 0; k <= a && len(model) < maxLen; k++ {
					i, x := min(b*3, len(model)), fresh()
					s.InsertAt(i, x)
					model = slices.Insert(model, i, x)
				}
			}
			checkSeq(t, fmt.Sprintf("step %d writer", step), &s, model)
			c := Collect(slices.Clone(model), nil)
			checkSeq(t, fmt.Sprintf("step %d collected", step), &c, model)
			for i, e := range model {
				if got := e.home.Index(e); got != i {
					t.Fatalf("step %d: element at %d: home gives %d", step, i, got)
				}
			}
			for i := range views {
				label := fmt.Sprintf("step %d view %d", step, i)
				checkSeq(t, label, &views[i].s, views[i].want)
				if err := s.CheckIsolated(&views[i].s); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
		}
	})
}

// checkSeq checks s's structure and that At, All, Materialize and cursors
// from a few positions all read want.
func checkSeq(t *testing.T, label string, s *Seq[*elem], want []*elem) {
	t.Helper()
	if err := s.Check(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if s.Len() != len(want) {
		t.Fatalf("%s: %d elements, want %d", label, s.Len(), len(want))
	}
	for i, x := range want {
		if s.At(i) != x {
			t.Fatalf("%s: At(%d) differs from the model", label, i)
		}
	}
	if got := s.Materialize(); !slices.Equal(got, want) {
		t.Fatalf("%s: Materialize differs from the model", label)
	}
	for i, x := range s.All() {
		if x != want[i] {
			t.Fatalf("%s: All yields a different element at %d", label, i)
		}
	}
	for _, from := range []int{0, 1, len(want) / 3, len(want) - 1, len(want)} {
		if from < 0 {
			continue
		}
		run, cur := s.Cursor(from)
		i := from
		for ; run != nil; run = cur.Next() {
			if len(run) == 0 {
				t.Fatalf("%s: cursor from %d yields an empty run at %d", label, from, i)
			}
			for _, x := range run {
				if i >= len(want) || x != want[i] {
					t.Fatalf("%s: cursor from %d differs from the model at %d", label, from, i)
				}
				i++
			}
		}
		if i != max(from, len(want)) {
			t.Fatalf("%s: cursor from %d stopped at %d, want %d", label, from, i, len(want))
		}
	}
}

// shape returns the sizes of s's nodes, level by level from the root.
func shape[T comparable](s *Seq[T]) [][]int {
	out := make([][]int, s.height+1)
	for n, h := range s.nodes() {
		out[s.height-h] = append(out[s.height-h], n.size())
	}
	return out
}

// TestSeqShape pins the shape appends leave — every node but the last on
// a level half full, so At's first guess is exact — and that Collect
// builds the same shape; and that Search finds the boundary of a
// monotone predicate.
func TestSeqShape(t *testing.T) {
	for _, n := range []int{0, 1, Width / 2, Width, Width + 1, Width * Width / 2, Width*Width/2 + Width/2 + 1, 3*Width*Width/4 + 5, 70_000} {
		var s Seq[int]
		xs := make([]int, n)
		for i := range n {
			xs[i] = i
			s.Append(i)
		}
		c := Collect(xs, nil)
		for _, q := range []*Seq[int]{&s, &c} {
			if err := q.Check(); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
		want := shape(&s)
		if got := shape(&c); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("n=%d: Collect leaves node sizes %v, appends %v", n, got, want)
		}
		for h, sizes := range want {
			for k, size := range sizes[:max(len(sizes)-1, 0)] {
				if size != Width/2 {
					t.Fatalf("n=%d: node %d of level %d holds %d, want %d", n, k, h, size, Width/2)
				}
			}
		}
		for _, want := range []int{0, 1, Width/2 - 1, Width / 2, Width*Width/4 + 1, n - 1, n} {
			if want < 0 || want > n {
				continue
			}
			if got := s.Search(func(x int) bool { return x >= want }); got != want {
				t.Fatalf("n=%d: Search for the first element >= %d = %d", n, want, got)
			}
		}
	}
}
