package topkq

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// rebuildExcluding is the reference for the exclusion tree: it recomputes
// from scratch the truncated Poisson-binomial distribution over every
// active group except l, in O(k·active). It was the scan's exclusion path
// before the tree replaced it, and the tree must reproduce its bits
// whenever the active list fits in one block.
func rebuildExcluding(G, q []float64, active []int, l int) {
	for j := range G {
		G[j] = 0
	}
	G[0] = 1
	k := len(G)
	for _, g := range active {
		if g == l || q[g] == 0 {
			continue
		}
		qg := q[g]
		if qg >= fullMass {
			// Bernoulli(1): pure shift.
			for j := k - 1; j >= 1; j-- {
				G[j] = G[j-1]
			}
			G[0] = 0
			continue
		}
		p := 1 - qg
		prev := 0.0
		for j := 0; j < k; j++ {
			cur := G[j]
			G[j] = p*cur + qg*prev
			prev = cur
		}
	}
}

// exclusionOp is one step of an incremental exclusion history: set slot s
// to q (s == number of slots appends one), or, with exclude, query slot s.
type exclusionOp struct {
	s       int
	q       float64
	exclude bool
}

// checkExclusion replays ops into a structure that is queried (and so
// lazily cleaned) along the way, then checks the three properties the PSR
// scan relies on, for every slot in probe:
//
//   - the exclusion agrees with rebuildExcluding over the final slot
//     values within 1e-12 absolute;
//   - it is bit-identical to rebuildExcluding when all slots fit in one
//     block (A ≤ B = k);
//   - it is bit-identical to the exclusion of a structure built from
//     scratch from the final slot values.
func checkExclusion(t *testing.T, k int, ops []exclusionOp, probe []int) {
	t.Helper()
	var inc, fresh exclusion
	inc.reset(k)
	fresh.reset(k)
	G := make([]float64, k)
	for _, op := range ops {
		if op.exclude {
			inc.exclude(G, op.s)
		} else {
			inc.set(op.s, op.q)
		}
	}
	A := len(inc.q)
	active := make([]int, A)
	for s, q := range inc.q {
		fresh.set(s, q)
		active[s] = s
	}
	want := make([]float64, k)
	got := make([]float64, k)
	for _, s := range probe {
		rebuildExcluding(want, inc.q, active, s)
		inc.exclude(G, s)
		fresh.exclude(got, s)
		for j := 0; j < k; j++ {
			if math.Float64bits(G[j]) != math.Float64bits(got[j]) {
				t.Fatalf("k=%d A=%d slot %d: incremental %v != from-scratch %v at j=%d", k, A, s, G[j], got[j], j)
			}
			if A <= k && math.Float64bits(G[j]) != math.Float64bits(want[j]) {
				t.Fatalf("k=%d A=%d slot %d: single block %v != rebuild %v at j=%d", k, A, s, G[j], want[j], j)
			}
			if d := math.Abs(G[j] - want[j]); !(d <= 1e-12) {
				t.Fatalf("k=%d A=%d slot %d: tree %v vs rebuild %v at j=%d (|diff| %g)", k, A, s, G[j], want[j], j, d)
			}
		}
	}
}

// drawQ returns an event probability from one of the three regimes the
// scan produces: tiny, above the deconvolution limit, and full mass.
func drawQ(rng *rand.Rand) float64 {
	switch rng.Intn(3) {
	case 0:
		return math.Pow(10, -1-11*rng.Float64())
	case 1:
		return 0.5 + 0.5*rng.Float64()
	default:
		return 1
	}
}

// TestExclusionMatchesRebuild is the property test of the exclusion tree
// against the from-scratch reference, over active lists of 1 to 5000
// slots and k ∈ {1, 2, 5, 15, 50}. Each history appends slots, updates
// earlier ones and queries in between, the way the scan does, so the
// lazily cleaned tree is compared against one built from scratch.
func TestExclusionMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	sizes := []int{1, 2, 3, 7, 14, 15, 16, 17, 49, 50, 51, 64, 100, 333, 1000, 5000}
	for _, k := range []int{1, 2, 5, 15, 50} {
		for _, A := range sizes {
			if testing.Short() && A > 1000 {
				continue
			}
			final := make([]float64, A)
			for s := range final {
				final[s] = drawQ(rng)
			}
			var ops []exclusionOp
			for s := 0; s < A; s++ {
				ops = append(ops, exclusionOp{s: s, q: drawQ(rng)})
				if rng.Intn(4) == 0 {
					ops = append(ops, exclusionOp{s: rng.Intn(s + 1), q: drawQ(rng)})
				}
				if rng.Intn(3) == 0 {
					ops = append(ops, exclusionOp{s: rng.Intn(s + 1), exclude: true})
				}
			}
			for _, s := range rng.Perm(A) {
				ops = append(ops, exclusionOp{s: s, q: final[s]})
				if rng.Intn(8) == 0 {
					ops = append(ops, exclusionOp{s: rng.Intn(A), exclude: true})
				}
			}
			probe := []int{0, A - 1}
			for i := 0; i < 30; i++ {
				probe = append(probe, rng.Intn(A))
			}
			checkExclusion(t, k, ops, probe)
		}
	}
}

// FuzzExclusion checks the same three properties over arbitrary
// histories. The first byte picks k; every following 3-byte record is an
// operation: the low bit of its first byte selects set or query, the rest
// of that byte picks the slot (capped to an append), and the next two
// bytes give the probability, read as one of the three regimes of drawQ.
func FuzzExclusion(f *testing.F) {
	f.Add([]byte{4, 0, 0, 0, 2, 255, 255, 1, 0, 0})
	f.Add([]byte{1, 0, 1, 2, 2, 3, 4, 4, 200, 0, 3, 0, 0})
	seed := []byte{14}
	for i := 0; i < 120; i++ {
		seed = append(seed, byte(2*i), byte(i*37), byte(i*91))
		if i%5 == 4 {
			seed = append(seed, byte(2*i/3+1), 0, 0)
		}
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		if len(data) > 1+3*256 {
			data = data[:1+3*256] // bound the cost of one execution
		}
		k := 1 + int(data[0])%50
		var ops []exclusionOp
		A := 0
		for rec := data[1:]; len(rec) >= 3; rec = rec[3:] {
			s := int(rec[0] >> 1)
			u := binary.LittleEndian.Uint16(rec[1:])
			if rec[0]&1 == 1 {
				if A > 0 {
					ops = append(ops, exclusionOp{s: s % A, exclude: true})
				}
				continue
			}
			if s > A {
				s = A
			}
			if s == A {
				A++
			}
			x := float64(u>>2) / (1<<14 - 1)
			var q float64
			switch u & 3 {
			case 0:
				q = math.Pow(10, -1-11*x)
			case 1, 2:
				q = 0.5 + 0.5*x
			default:
				q = 1
			}
			ops = append(ops, exclusionOp{s: s, q: q})
		}
		if A == 0 {
			return
		}
		probe := make([]int, A)
		for s := range probe {
			probe[s] = s
		}
		checkExclusion(t, k, ops, probe)
	})
}

// mulReference is the exclusion tree's product as one output at a time:
// output j sums a[i]*b[j-i] over ascending i. mul must reproduce its
// bits.
func mulReference(dst, a, b []float64) {
	for j := range dst {
		var s float64
		for i := 0; i <= j; i++ {
			s += a[i] * b[j-i]
		}
		dst[j] = s
	}
}

// FuzzExclMul checks mul bit for bit against mulReference for k in 1..40.
// The first byte picks k; each following byte gives one input entry,
// read as zero, a subnormal, a tiny, a moderate or a probability-sized
// value, so sums cancel nothing but round at every magnitude.
func FuzzExclMul(f *testing.F) {
	f.Add([]byte{14, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{9, 0, 0, 255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte{39})
	rng := rand.New(rand.NewSource(40))
	for range 32 {
		seed := make([]byte, 81)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := 1 + int(data[0])%40
		a, b := make([]float64, k), make([]float64, k)
		for i := range 2 * k {
			var u byte
			if 1+i < len(data) {
				u = data[1+i]
			} else {
				u = byte(i * 97)
			}
			x := float64(u>>3) / 31
			var v float64
			switch u & 7 {
			case 0:
				v = 0
			case 1:
				v = x * math.SmallestNonzeroFloat64 * float64(1+int(u)*1237)
			case 2:
				v = math.Pow(10, -300*x)
			case 3:
				v = math.Pow(10, -12*x)
			default:
				v = x
			}
			if i < k {
				a[i] = v
			} else {
				b[i-k] = v
			}
		}
		got, want := make([]float64, k), make([]float64, k)
		mul(got, a, b)
		mulReference(want, a, b)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("k=%d: mul[%d] = %v, reference %v", k, j, got[j], want[j])
			}
		}
	})
}

// TestExclLeafFoldTrimmed pins the trimmed leaf folds of clean against
// folds over the whole k-vector: a leaf built by the tree must hold the
// bits of its block's slots folded in order into [1, 0, ..., 0] over all
// k entries, with tiny, subnormal, moderate and full-mass slots.
func TestExclLeafFoldTrimmed(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 2000; trial++ {
		k := 1 + rng.Intn(40)
		var ex exclusion
		ex.reset(k)
		n := 1 + rng.Intn(k)
		q := make([]float64, n)
		for s := range q {
			switch rng.Intn(4) {
			case 0:
				q[s] = math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))
			case 1:
				q[s] = 1
			default:
				q[s] = drawQ(rng)
			}
			ex.set(s, q[s])
		}
		want := make([]float64, k)
		want[0] = 1
		for _, qs := range q {
			fold(want, qs)
		}
		got := ex.clean(0, 0)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("trial %d, k=%d, %d slots: leaf[%d] = %v, untrimmed fold %v", trial, k, n, j, got[j], want[j])
			}
		}
	}
}

// BenchmarkExclMul measures one k-truncated product of the exclusion
// tree.
func BenchmarkExclMul(b *testing.B) {
	for _, k := range []int{10, 15} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(k)))
			x, y, dst := make([]float64, k), make([]float64, k), make([]float64, k)
			for i := range x {
				x[i], y[i] = rng.Float64(), rng.Float64()
			}
			b.ResetTimer()
			for range b.N {
				mul(dst, x, y)
			}
		})
	}
}
