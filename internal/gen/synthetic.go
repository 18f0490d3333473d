// Package gen generates the paper's evaluation workloads (Section VI): the
// synthetic dataset with Gaussian/uniform uncertainty pdfs, a synthetic
// stand-in for the MOV movie-rating dataset, and the cleaning-cost and
// sc-probability distributions used in the cleaning experiments.
//
// All generators are deterministic given their seed, so every experiment in
// this repository is reproducible bit-for-bit.
package gen

import (
	"fmt"
	"math/rand"
	"strconv"

	"github.com/probdb/topkclean/internal/numeric"
	"github.com/probdb/topkclean/internal/uncertain"
)

// PDFKind selects the uncertainty pdf (y.U) of the synthetic workload.
type PDFKind int

const (
	// PDFGaussian is N(mu, sigma^2) restricted to the uncertainty interval.
	PDFGaussian PDFKind = iota
	// PDFUniform spreads the mass evenly over the uncertainty interval.
	PDFUniform
)

// SyntheticConfig describes the synthetic dataset of Section VI. The zero
// value is not useful; start from DefaultSynthetic.
type SyntheticConfig struct {
	NumXTuples int     // x-tuples to generate (paper default: 5000)
	Bars       int     // histogram bars per x-tuple = alternatives (default 10)
	DomainLo   float64 // attribute domain lower bound (default 0)
	DomainHi   float64 // attribute domain upper bound (default 10000)
	PDF        PDFKind // uncertainty pdf family
	Sigma      float64 // Gaussian sigma (default 100; the GX of Figure 4(b))
	WidthLo    float64 // uncertainty interval width lower bound (default 60)
	WidthHi    float64 // uncertainty interval width upper bound (default 100)
	Seed       int64
}

// DefaultSynthetic returns the paper's default synthetic configuration:
// 5K x-tuples x 10 tuples = 50K tuples, domain [0, 10000], Gaussian pdf
// with sigma = 100, uncertainty interval width uniform in [60, 100].
func DefaultSynthetic() SyntheticConfig {
	return SyntheticConfig{
		NumXTuples: 5000,
		Bars:       10,
		DomainLo:   0,
		DomainHi:   10000,
		PDF:        PDFGaussian,
		Sigma:      100,
		WidthLo:    60,
		WidthHi:    100,
		Seed:       1,
	}
}

// Synthetic generates and builds the synthetic database: each x-tuple has a
// 1-D attribute y with uncertainty interval y.L (width uniform in
// [WidthLo, WidthHi], centered on a mean mu uniform in the domain) and
// uncertainty pdf y.U; y.U restricted to y.L is discretized into Bars
// equal-width histogram bars whose masses become existential probabilities
// and whose midpoints become values. Higher y ranks higher.
func Synthetic(cfg SyntheticConfig) (*uncertain.Database, error) {
	if cfg.NumXTuples < 1 {
		return nil, fmt.Errorf("gen: NumXTuples = %d, want >= 1", cfg.NumXTuples)
	}
	if cfg.Bars < 1 {
		return nil, fmt.Errorf("gen: Bars = %d, want >= 1", cfg.Bars)
	}
	if cfg.DomainHi <= cfg.DomainLo {
		return nil, fmt.Errorf("gen: empty domain [%g, %g]", cfg.DomainLo, cfg.DomainHi)
	}
	if cfg.WidthLo <= 0 || cfg.WidthHi < cfg.WidthLo {
		return nil, fmt.Errorf("gen: bad interval widths [%g, %g]", cfg.WidthLo, cfg.WidthHi)
	}
	if cfg.PDF == PDFGaussian && cfg.Sigma <= 0 {
		return nil, fmt.Errorf("gen: sigma = %g, want > 0", cfg.Sigma)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := uncertain.New()
	// AddXTuple copies what it is given into the database's per-x-tuple
	// arena, so one tuple slice and one attribute slice serve every
	// x-tuple, and the IDs "x<i>.<b>" are appended into one buffer and
	// become one string per x-tuple: a million tuples are otherwise a
	// million formatted strings and a million one-element slices.
	tuples := make([]uncertain.Tuple, 0, cfg.Bars)
	attrs := make([]float64, cfg.Bars)
	var buf []byte
	var ends []int // ends[b]: where tuple b's ID ends in buf[nameLen:]
	for i := 0; i < cfg.NumXTuples; i++ {
		mu := cfg.DomainLo + rng.Float64()*(cfg.DomainHi-cfg.DomainLo)
		width := cfg.WidthLo + rng.Float64()*(cfg.WidthHi-cfg.WidthLo)
		lo, hi := mu-width/2, mu+width/2
		var mass numeric.MassFunc
		switch cfg.PDF {
		case PDFGaussian:
			mass = numeric.Gaussian{Mu: mu, Sigma: cfg.Sigma}.Mass
		case PDFUniform:
			mass = numeric.UniformMass(lo, hi)
		default:
			return nil, fmt.Errorf("gen: unknown pdf kind %d", cfg.PDF)
		}
		bins := numeric.DiscretizeEqualWidth(lo, hi, cfg.Bars, mass)
		if len(bins) == 0 {
			// The pdf places no mass on the interval (cannot happen for the
			// supported pdfs, whose support covers the interval).
			return nil, fmt.Errorf("gen: x-tuple %d received no probability mass", i)
		}
		buf = strconv.AppendInt(append(buf[:0], 'x'), int64(i), 10)
		nameLen := len(buf)
		ends = ends[:0]
		for b := range bins {
			buf = append(append(buf, buf[:nameLen]...), '.')
			buf = strconv.AppendInt(buf, int64(b), 10)
			ends = append(ends, len(buf)-nameLen)
		}
		ids := string(buf[nameLen:])
		tuples = tuples[:len(bins)]
		start := 0
		for b, bin := range bins {
			attrs[b] = bin.Value
			tuples[b] = uncertain.Tuple{ID: ids[start:ends[b]], Attrs: attrs[b : b+1 : b+1], Prob: bin.Prob}
			start = ends[b]
		}
		if err := db.AddXTuple(string(buf[:nameLen]), tuples...); err != nil {
			return nil, err
		}
	}
	if err := db.Build(uncertain.ByFirstAttr); err != nil {
		return nil, err
	}
	return db, nil
}

// SyntheticSized is a convenience for the scaling experiments (Figures
// 4(d)-(f)): the default configuration resized to the given number of
// x-tuples (database size in tuples = 10x that).
func SyntheticSized(numXTuples int, seed int64) (*uncertain.Database, error) {
	cfg := DefaultSynthetic()
	cfg.NumXTuples = numXTuples
	cfg.Seed = seed
	return Synthetic(cfg)
}
