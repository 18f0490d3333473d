package quality

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/probdb/topkclean/internal/numeric"
	"github.com/probdb/topkclean/internal/topkq"
	"github.com/probdb/topkclean/internal/uncertain"
)

// Evaluation is the output of the TP algorithm: the quality score together
// with the per-tuple weights and per-x-tuple contributions the cleaning
// planners consume. An Evaluation is immutable once returned.
type Evaluation struct {
	S float64 // PWS-quality S(D,Q)

	// Omega[i] is the weight w_i of Equation 6 for the alternative at rank
	// position i. S = sum_i Omega[i] * p_i (Theorem 1). Only the leading
	// Info.Processed positions are materialized: beyond them p_i = 0, so
	// the weights are irrelevant (and are not computed, per the
	// optimization noted after Lemma 2).
	Omega []float64

	// GroupGain was the dense per-x-tuple gain vector of length m.
	//
	// Deprecated: evaluations from this package leave it nil; their gains
	// are sparse — read them with Gain, Gains or GainsOn. GainsOn still
	// honours a dense GroupGain on an evaluation assembled by hand without
	// Info.
	GroupGain []float64

	// Info is the rank-probability information used; it can be shared with
	// query evaluation (Section IV-C).
	Info *topkq.RankInfo

	// gains holds g(l,D) = sum_{t_i in tau_l} w_i p_i, the x-tuple's
	// contribution to the quality score (Section V-B), for every x-tuple
	// where it is non-zero, in ascending group order. Only x-tuples with an
	// alternative in the processed prefix can appear, so the slice is
	// O(Info.Processed), not O(m).
	gains Gains
	// groups is the x-tuple count m the gains index; 0 marks an evaluation
	// assembled outside this package, which records no gains.
	groups int
}

// Gain is one x-tuple's contribution g(l,D) to the quality score. It is
// <= 0, and S = sum_l g(l,D). Cleaning x-tuple l successfully removes
// exactly -g(l,D) from the quality deficit (Theorem 2).
type Gain struct {
	Group int
	Value float64
}

// Gains is a sparse gain vector: the non-zero g(l,D) in ascending group
// order. X-tuples without an entry have zero gain, which by Lemma 5 makes
// them no cleaning candidates.
type Gains []Gain

// At returns g(l,D): the entry for group l, or 0 when it has none.
// O(log |g|).
func (g Gains) At(l int) float64 {
	i, ok := slices.BinarySearchFunc(g, l, func(e Gain, l int) int { return cmp.Compare(e.Group, l) })
	if !ok {
		return 0
	}
	return g[i].Value
}

// Gain returns g(l,D), the x-tuple's contribution to the quality score;
// zero for an x-tuple with no alternative contributing to it. O(log Z)
// over the non-zero gains. An evaluation assembled by hand records no
// gains and answers 0 everywhere; use GainsOn for those.
func (ev *Evaluation) Gain(l int) float64 { return ev.gains.At(l) }

// Gains returns the non-zero group gains in ascending group order. The
// slice is shared with the evaluation and must not be modified.
func (ev *Evaluation) Gains() Gains { return ev.gains }

// Carry returns the evaluation for a newer version of the same database
// whose scan is a pure cache hit: every mutation since lies at or below
// the early-termination point, so the processed prefix — and with it S,
// Omega and every gain — is unchanged, and no surviving x-tuple was
// renumbered. info is the resumed rank information and m the new x-tuple
// count; x-tuples appended or dropped by such mutations have all their
// alternatives below the termination point and hence zero gain, so the
// sparse gains are shared outright. O(1).
func (ev *Evaluation) Carry(info *topkq.RankInfo, m int) *Evaluation {
	return &Evaluation{S: ev.S, Omega: ev.Omega, Info: info, gains: ev.gains, groups: m}
}

// ErrNoGains reports an evaluation whose group gains can be neither read
// nor re-derived for the database at hand.
var ErrNoGains = errors.New("quality: evaluation carries no group gains for this database")

// GainsOn returns ev's non-zero group gains for db, in ascending group
// order. An evaluation from this package records them and must index db's
// x-tuple count. One assembled by hand records none: when it carries Info
// matching db, the gains are re-derived by a TP pass over that info —
// the same accumulation, so bit-identical to what TPFromInfo records;
// otherwise a dense GroupGain of length m supplies its non-zero entries.
// Anything else fails with ErrNoGains.
func GainsOn(db *uncertain.Database, ev *Evaluation) (Gains, error) {
	m := db.NumGroups()
	switch {
	case ev.groups != 0:
		if ev.groups != m {
			return nil, fmt.Errorf("%w: gains index %d x-tuples, database has %d", ErrNoGains, ev.groups, m)
		}
		return ev.gains, nil
	case ev.Info != nil:
		re, err := TPFromInfo(db, ev.Info)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrNoGains, err)
		}
		return re.gains, nil
	case len(ev.GroupGain) == m:
		var g Gains
		for l, v := range ev.GroupGain {
			if v != 0 {
				g = append(g, Gain{Group: l, Value: v})
			}
		}
		return g, nil
	}
	return nil, fmt.Errorf("%w: %d dense gains, database has %d x-tuples", ErrNoGains, len(ev.GroupGain), m)
}

// TP computes the PWS-quality with the tuple-form expression of Theorem 1:
// S(D,Q) = sum_i w_i p_i. It runs PSR internally (retaining only top-k
// probabilities) and costs O(kn) time. This is the algorithm the paper
// recommends and the default throughout this library.
func TP(db *uncertain.Database, k int) (*Evaluation, error) {
	if err := checkArgs(db, k); err != nil {
		return nil, err
	}
	info, err := topkq.TopKProbabilities(db, k)
	if err != nil {
		return nil, err
	}
	return TPFromInfo(db, info)
}

// TPFromInfo computes the PWS-quality from rank-probability information
// that has already been computed — typically by a query evaluation, so the
// expensive PSR pass is shared between the query answer and its quality
// score (Figure 1(b), Section IV-C). The incremental weight computation
// below is the only extra work, which is why the paper measures the quality
// overhead at just a few percent of query time for large k.
func TPFromInfo(db *uncertain.Database, info *topkq.RankInfo) (*Evaluation, error) {
	if !db.Built() {
		return nil, uncertain.ErrNotBuilt
	}
	if info == nil || info.N != db.NumTuples() {
		return nil, fmt.Errorf("quality: rank info does not match database")
	}
	limit := info.Processed
	if limit > db.NumTuples() {
		limit = db.NumTuples()
	}
	p := newTPPass(info, db.NumGroups(), limit)
	// Chunk cursor instead of materializing Sorted(): this pass runs after
	// every mutation in the serving loop, and the processed prefix is
	// usually a small fraction of a large database.
	cur := db.CursorAt(0)
	for i := 0; i < limit; i++ {
		t := cur.Next()
		p.step(i, t, t.Group)
	}
	return p.finish(), nil
}

// tpPass is one TP evaluation in progress: the per-position step shared by
// TPFromInfo and TPFromStream, which differ only in where the prefix
// tuples and their group indices come from.
type tpPass struct {
	ev   *Evaluation
	info *topkq.RankInfo
	sc   *tpScratch
	s    numeric.Kahan
}

// tpCell is one x-tuple's scratch state: e is the running E_{i,l} of
// Equation 7 — the mass of tau_l's alternatives ranked at or above the
// scan point — and g the gain accumulated so far.
type tpCell struct{ e, g float64 }

// tpScratch is the pooled dense scratch of a pass. Between passes every
// cell is zero; a pass clears only the cells of the groups it touched, so
// its cost is O(processed), never O(m).
type tpScratch struct {
	cells   []tpCell
	touched []int
}

// tpScratchPool holds *tpScratch: pooling the pointer, not a slice header,
// keeps Put allocation-free.
var tpScratchPool = sync.Pool{New: func() any { return new(tpScratch) }}

func newTPPass(info *topkq.RankInfo, m, limit int) tpPass {
	sc := tpScratchPool.Get().(*tpScratch)
	if cap(sc.cells) < m {
		sc.cells = make([]tpCell, m)
	}
	sc.cells = sc.cells[:m]
	return tpPass{
		ev:   &Evaluation{Omega: make([]float64, limit), Info: info, groups: m},
		info: info,
		sc:   sc,
	}
}

// step folds rank position i, holding alternative t of group l, into the
// pass. The recurrence of Equation 9 updates E in O(1) per alternative.
func (p *tpPass) step(i int, t *uncertain.Tuple, l int) {
	c := &p.sc.cells[l]
	if c.e == 0 {
		p.sc.touched = append(p.sc.touched, l)
	}
	c.e += t.Prob
	pi := p.info.P(i)
	if pi == 0 {
		// w_i * p_i = 0 regardless of w_i; skip the weight computation
		// (the optimization noted after Lemma 2) but keep E updated.
		return
	}
	w := omega(t.Prob, c.e)
	p.ev.Omega[i] = w
	term := w * pi
	c.g += term
	p.s.Add(term)
}

// finish emits the non-zero gains in ascending group order, clears the
// touched cells, returns the scratch to the pool, and completes S. Each
// group's terms were added in scan order, so every gain is bit-identical
// to the dense accumulation.
func (p *tpPass) finish() *Evaluation {
	sc := p.sc
	slices.Sort(sc.touched)
	n := 0
	for j, l := range sc.touched {
		if (j == 0 || l != sc.touched[j-1]) && sc.cells[l].g != 0 {
			n++
		}
	}
	ev := p.ev
	if n > 0 {
		ev.gains = make(Gains, 0, n)
	}
	for _, l := range sc.touched {
		c := &sc.cells[l]
		if c.g != 0 {
			ev.gains = append(ev.gains, Gain{Group: l, Value: c.g})
		}
		*c = tpCell{}
	}
	sc.touched = sc.touched[:0]
	tpScratchPool.Put(sc)
	p.sc = nil
	ev.S = p.s.Sum()
	// Guard against floating-point drift pushing the score above the
	// theoretical maximum of 0.
	if ev.S > 0 {
		ev.S = 0
	}
	return ev
}

// omega computes w_i (Equation 8):
//
//	w_i = log2(e_i) + (1/e_i) * (Y(1 - E_i) - Y(1 - E_i + e_i))
//
// where E_i is the mass of the own x-tuple's alternatives ranked at or
// above t_i (including t_i itself) and Y(x) = x log2 x.
func omega(e, Ei float64) float64 {
	a := numeric.Clamp01(1 - Ei)
	b := numeric.Clamp01(1 - Ei + e)
	return numeric.Log2(e) + (numeric.Y(a)-numeric.Y(b))/e
}
