package topkq

// exclusion maintains the per-slot event probabilities of the active
// groups (slot s is the s-th group to appear in the scan) together with a
// product tree that answers "the truncated Poisson-binomial distribution
// over every active slot except s" in O(k²·log(A/B) + B·k) instead of the
// O(k·A) of folding all A slots from scratch. It serves the scan positions
// where the own-group mass is too large for the deconvolution recurrence.
//
// The tree is built over blocks of B = k consecutive slots. A leaf is the
// sequential Bernoulli fold of its block's slots (fold); an internal node
// is the k-truncated product (mul) of its two children; a node whose right
// child does not exist yet holds a copy of its left child, which is exactly
// the product with the identity [1]. Every node value is therefore a pure
// function of the leaves: a tree cleaned after each update, cleaned only
// when queried, or built from scratch from the same slots holds the same
// bits. That is what keeps a fresh scan and a checkpoint-resumed scan,
// over any Source, bit-identical to one another.
//
// With A ≤ B there is a single block and no siblings, so exclude is the
// sequential fold over the active slots in first-appearance order — the
// exact operation sequence of a from-scratch rebuild.
type exclusion struct {
	k   int
	q   []float64   // event probability per active slot
	lv  []exclLevel // lv[0] holds the leaves; the last level is the root
	tmp []float64   // product scratch for exclude
}

// exclLevel is one level of the product tree: node i covers blocks
// [i·2^h, (i+1)·2^h) and keeps its k-vector at val[i*k:(i+1)*k]. A dirty
// node's value is stale; every ancestor of a dirty node is dirty too.
type exclLevel struct {
	val   []float64
	dirty []bool
}

// reset empties the structure for distributions of length k, keeping its
// buffers.
func (ex *exclusion) reset(k int) {
	ex.k = k
	ex.q = ex.q[:0]
	lv := ex.lv[:cap(ex.lv)]
	for h := range lv {
		lv[h].val = lv[h].val[:0]
		lv[h].dirty = lv[h].dirty[:0]
	}
	ex.lv = ex.lv[:0]
	ex.tmp = zeroed(ex.tmp, k)
}

// set records v as the event probability of slot s, appending a new slot
// when s == len(q), and marks the slot's block path dirty.
func (ex *exclusion) set(s int, v float64) {
	if s == len(ex.q) {
		ex.q = append(ex.q, v)
	} else {
		ex.q[s] = v
	}
	b := s / ex.k
	for h := 0; ; h++ {
		if h == len(ex.lv) {
			if h < cap(ex.lv) {
				ex.lv = ex.lv[:h+1] // a level emptied by reset
			} else {
				ex.lv = append(ex.lv, exclLevel{})
			}
		}
		L := &ex.lv[h]
		i := b >> h
		switch {
		case i == len(L.dirty):
			// A new node. Its parent, if it already exists, now has a
			// right child it did not have, so the walk continues.
			L.val = append(L.val, make([]float64, ex.k)...)
			L.dirty = append(L.dirty, true)
		case L.dirty[i]:
			return // ancestors of a dirty node are dirty already
		default:
			L.dirty[i] = true
		}
		if len(L.dirty) == 1 {
			return // root
		}
	}
}

// clean brings node i of level h up to date and returns its value.
func (ex *exclusion) clean(h, i int) []float64 {
	k := ex.k
	L := &ex.lv[h]
	v := L.val[i*k : (i+1)*k]
	if !L.dirty[i] {
		return v
	}
	if h == 0 {
		clear(v)
		v[0] = 1
		for _, qs := range ex.q[i*k : min((i+1)*k, len(ex.q))] {
			fold(v, qs)
		}
	} else {
		left := ex.clean(h-1, 2*i)
		if 2*i+1 < len(ex.lv[h-1].dirty) {
			mul(v, left, ex.clean(h-1, 2*i+1))
		} else {
			copy(v, left)
		}
	}
	L.dirty[i] = false
	return v
}

// exclude writes into G (length k) the truncated Poisson-binomial
// distribution over every slot except s: the product of the siblings on
// s's block path, bottom-up, then s's block folded without s.
func (ex *exclusion) exclude(G []float64, s int) {
	k := ex.k
	b := s / k
	first := true
	for h := 0; h+1 < len(ex.lv); h++ {
		sib := (b >> h) ^ 1
		if sib >= len(ex.lv[h].dirty) {
			continue // the identity
		}
		v := ex.clean(h, sib)
		if first {
			copy(G, v) // exactly mul([1], v)
			first = false
		} else {
			mul(ex.tmp, G, v)
			copy(G, ex.tmp)
		}
	}
	if first {
		clear(G)
		G[0] = 1
	}
	lo, hi := b*k, min((b+1)*k, len(ex.q))
	for j := lo; j < hi; j++ {
		if j != s {
			fold(G, ex.q[j])
		}
	}
}

// fold convolves G in place with Bernoulli(q), truncated to len(G); a
// full-mass q (E_{i,l} = 1 in Lemma 2) is a pure shift.
func fold(G []float64, q float64) {
	if q >= fullMass {
		for j := len(G) - 1; j >= 1; j-- {
			G[j] = G[j-1]
		}
		G[0] = 0
		return
	}
	p := 1 - q
	prev := 0.0
	for j, cur := range G {
		G[j] = p*cur + q*prev
		prev = cur
	}
}

// mul sets dst to the product of the distributions a and b truncated to
// len(dst); dst must alias neither.
func mul(dst, a, b []float64) {
	for j := range dst {
		var s float64
		for i := 0; i <= j; i++ {
			s += a[i] * b[j-i]
		}
		dst[j] = s
	}
}
