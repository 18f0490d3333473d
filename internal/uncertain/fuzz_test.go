package uncertain

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/probdb/topkclean/internal/cowvec"
)

// fuzzSeedDB builds a small mixed database (certain, uncertain, absent
// x-tuples) without a testing handle, for seeding the fuzz corpus.
func fuzzSeedDB() (*Database, error) {
	db := New()
	rng := rand.New(rand.NewSource(9))
	for g := 0; g < 12; g++ {
		n := 1 + rng.Intn(3)
		ts := make([]Tuple, n)
		for i := range ts {
			ts[i] = Tuple{
				ID:    fmt.Sprintf("f%d.%d", g, i),
				Attrs: []float64{rng.Float64() * 100, float64(g)},
				Prob:  (0.1 + 0.85*rng.Float64()) / float64(n),
			}
		}
		if err := db.AddXTuple(fmt.Sprintf("F%d", g), ts...); err != nil {
			return nil, err
		}
	}
	if err := db.AddAbsentXTuple("gone"); err != nil {
		return nil, err
	}
	if err := db.Build(ByFirstAttr); err != nil {
		return nil, err
	}
	return db, nil
}

// FuzzDecodeWire feeds arbitrary bytes to DecodeWire. The contract under
// fuzz: corrupt input must produce an error, never a panic; and any input
// the decoder accepts must yield a valid database whose encoding is a
// fixed point (encode(decode(x)) re-decodes and re-encodes to identical
// bytes) — the bit-identical persistence property PR 5 relies on.
func FuzzDecodeWire(f *testing.F) {
	db, err := fuzzSeedDB()
	if err != nil {
		f.Fatal(err)
	}
	valid, err := EncodeWire(db)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// A mutated database exercises version > 1 and renumbered groups.
	if err := db.DeleteXTuple(3); err != nil {
		f.Fatal(err)
	}
	if err := db.InsertXTuple("late", Tuple{ID: "late.0", Attrs: []float64{55, 0}, Prob: 0.7}); err != nil {
		f.Fatal(err)
	}
	mutated, err := EncodeWire(db)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mutated)
	// Structurally plausible corruptions: truncations (inside the header,
	// an x-tuple and the rank order), flipped bytes, counts and lengths no
	// input could hold, and non-wire JSON, so the fuzzer starts near the
	// interesting boundaries.
	for _, cut := range []int{len(wireMagic) + 2, len(valid) / 3, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	tweaked := append([]byte(nil), valid...)
	tweaked[len(tweaked)/3] ^= 0x20
	f.Add(tweaked)
	f.Add(append(wireHeader(1<<40, 1), make([]byte, 32)...))
	f.Add(append(wireHeader(1, 1<<50), make([]byte, 32)...))
	f.Add(append(binary.AppendUvarint(wireHeader(1, 1), 1<<30), make([]byte, 32)...))
	// The v1 JSON reader stays reachable: seed it with real v1 documents.
	v1, err := encodeWireV1(db)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	f.Add(v1[:len(v1)/2])
	f.Add([]byte(`{"format":"topkclean-wire/v1"}`))
	f.Add([]byte(`{"format":"bogus/v9"}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeWire(data, ByFirstAttr)
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("DecodeWire accepted bytes that validate to a broken database: %v", err)
		}
		e1, err := EncodeWire(got)
		if err != nil {
			t.Fatalf("decoded database does not re-encode: %v", err)
		}
		back, err := DecodeWire(e1, ByFirstAttr)
		if err != nil {
			t.Fatalf("re-encoded bytes do not decode: %v", err)
		}
		e2, err := EncodeWire(back)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(e1, e2) {
			t.Fatalf("encoding is not a fixed point: %d vs %d bytes", len(e1), len(e2))
		}
	})
}

// FuzzGroupVec drives the copy-on-write group vector with arbitrary
// append / set / delete-at / publish sequences and checks it against a
// plain-slice model after every step: the writer's contents equal the
// model's, the structural invariants (cowvec.Seq.Check) hold for the
// writer and every published view, every view still holds exactly what
// the model held when it was published, and no node a view reaches is
// writable in place by the writer (it was made in an older epoch).
func FuzzGroupVec(f *testing.F) {
	f.Add([]byte{0, 0, 3, 1, 0, 2, 2, 1, 3})
	f.Add([]byte{4, 255, 4, 255, 3, 2, 0, 5, 1, 1, 0, 3, 2, 255, 255, 4, 10, 3, 2, 0, 0})
	f.Add([]byte{4, 255, 3, 4, 1, 3, 2, 0, 0, 3, 2, 0, 0, 2, 0, 0, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const maxSteps, maxGroups, maxViews = 128, 4096, 32
		type view struct {
			v    cowvec.Seq[*XTuple]
			want []*XTuple
		}
		var (
			v     cowvec.Seq[*XTuple]
			model []*XTuple
			views []view
			next  int
		)
		fresh := func() *XTuple {
			next++
			return &XTuple{Name: fmt.Sprint(next)}
		}
		checkView := func(label string, got cowvec.Seq[*XTuple], want []*XTuple) {
			if err := got.Check(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got.Len() != len(want) {
				t.Fatalf("%s: %d groups, want %d", label, got.Len(), len(want))
			}
			for l, x := range want {
				if got.At(l) != x {
					t.Fatalf("%s: group %d differs from the model", label, l)
				}
			}
		}
		for step := 0; len(ops) > 0 && step < maxSteps; step++ {
			op := ops[0]
			arg := 0
			if len(ops) > 1 {
				arg = int(ops[1])
			}
			ops = ops[min(2, len(ops)):]
			switch op % 5 {
			case 0:
				if len(model) < maxGroups {
					x := fresh()
					v.Append(x)
					model = append(model, x)
				}
			case 1:
				if len(model) > 0 {
					l := arg * 17 % len(model)
					x := fresh()
					v.Set(l, x)
					model[l] = x
				}
			case 2:
				if len(model) > 0 {
					l := arg * 17 % len(model)
					v.DeleteAt(l)
					model = append(model[:l], model[l+1:]...)
				}
			case 3:
				views = append(views, view{v: v.Publish(), want: append([]*XTuple(nil), model...)})
				if len(views) > maxViews {
					views = views[1:]
				}
			case 4:
				for i := 0; i <= arg && len(model) < maxGroups; i++ {
					x := fresh()
					v.Append(x)
					model = append(model, x)
				}
			}
			checkView(fmt.Sprintf("step %d writer", step), v, model)
			if got := v.Materialize(); !slices.Equal(got, model) {
				t.Fatalf("step %d: materialize differs from the model", step)
			}
			for i, pv := range views {
				label := fmt.Sprintf("step %d view %d", step, i)
				checkView(label, pv.v, pv.want)
				if err := v.CheckIsolated(&pv.v); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
		}
	})
}

// FuzzIDIndex drives the writer's open-addressing ID index with put,
// replace, delete and get against a map reference, checking after every
// step that the two agree, that every entry is reachable from its home
// slot and that the load stays at most 3/4. Each op is a byte pair (kind,
// ID). The IDs come from a small universe so ops collide; half of it is
// drawn so that every ID's probe chain starts in the last two slots of
// the starting table, so chains and backward-shift deletions wrap around
// the table's end, and the other half makes the table grow across
// several resizes.
func FuzzIDIndex(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 2, 0, 3, 1, 3, 2, 3, 3, 2, 2, 3, 3})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 0, 2, 1, 3, 0, 3, 5, 2, 0, 2, 3, 3, 4})
	grow := make([]byte, 0, 128)
	for i := byte(0); i < 48; i++ {
		grow = append(grow, 0, i)
	}
	for i := byte(0); i < 48; i += 3 {
		grow = append(grow, 2, i, 3, i+1)
	}
	f.Add(grow)
	f.Fuzz(func(t *testing.T, ops []byte) {
		ix := newIDIndex(0)
		ids := make([]string, 0, 48)
		for i := 0; len(ids) < 24; i++ {
			if id := fmt.Sprintf("w%d", i); ix.home(id) >= len(ix.slots)-2 {
				ids = append(ids, id)
			}
		}
		for i := 0; i < 24; i++ {
			ids = append(ids, fmt.Sprintf("k%d", i))
		}
		ref := make(map[string]*Tuple)
		for step := 0; step+1 < len(ops); step += 2 {
			id := ids[int(ops[step+1])%len(ids)]
			switch ops[step] % 4 {
			case 0, 1: // put; a fresh tuple replaces one of the same ID
				tp := &Tuple{ID: id}
				if replaced := ix.put(tp); replaced != (ref[id] != nil) {
					t.Fatalf("step %d: put(%q) replaced = %v, reference holds %p", step/2, id, replaced, ref[id])
				}
				ref[id] = tp
			case 2:
				ix.del(id)
				delete(ref, id)
			case 3:
				if got := ix.get(id); got != ref[id] {
					t.Fatalf("step %d: get(%q) = %p, want %p", step/2, id, got, ref[id])
				}
			}
			if ix.n != len(ref) || ix.n*4 > len(ix.slots)*3 {
				t.Fatalf("step %d: %d entries in %d slots, reference holds %d", step/2, ix.n, len(ix.slots), len(ref))
			}
			held := 0
			for _, tp := range ix.slots {
				if tp != nil {
					held++
					if ref[tp.ID] != tp || ix.get(tp.ID) != tp {
						t.Fatalf("step %d: slot holds %q, which the reference or a lookup does not", step/2, tp.ID)
					}
				}
			}
			if held != ix.n {
				t.Fatalf("step %d: %d slots hold entries, count is %d", step/2, held, ix.n)
			}
		}
	})
}
