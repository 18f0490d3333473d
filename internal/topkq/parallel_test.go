package topkq

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/probdb/topkclean/internal/uncertain"
)

// withExclWorkers runs fn with the exclusion phase forced to w workers and
// no work threshold (w = 0 restores the automatic count).
func withExclWorkers(t *testing.T, w int, fn func()) {
	t.Helper()
	prev := forceExclWorkers
	forceExclWorkers = w
	defer func() { forceExclWorkers = prev }()
	fn()
}

// churnDB builds an m-x-tuple database of one to five alternatives each,
// scored around a per-x-tuple centre, with one dominant alternative and
// few x-tuples without a null: many x-tuples then have several
// alternatives inside the processed prefix, the dominant one above the
// deconvolution limit, so the prefix holds hundreds of exclusion
// positions.
func churnDB(t *testing.T, rng *rand.Rand, m int) *uncertain.Database {
	t.Helper()
	db := uncertain.New()
	for g := 0; g < m; g++ {
		n := 1 + rng.Intn(5)
		target := 1.0
		if rng.Intn(20) != 0 {
			target = 0.7 + 0.29*rng.Float64()
		}
		centre := rng.NormFloat64() * 100
		ts := make([]uncertain.Tuple, n)
		for i := range ts {
			ts[i] = uncertain.Tuple{
				ID:    fmt.Sprintf("c%d.%d", g, i),
				Attrs: []float64{centre + rng.NormFloat64()*10},
				Prob:  target / float64(n),
			}
		}
		if n > 1 {
			ts[0].Prob = target * 0.6
			for i := 1; i < n; i++ {
				ts[i].Prob = target * 0.4 / float64(n-1)
			}
		}
		if err := db.AddXTuple(fmt.Sprintf("C%d", g), ts...); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Build(uncertain.ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	return db
}

// churnStep applies one mutation of the battery's mix: an x-tuple
// inserted near the top of the rank order, a delete, or a reweight of an
// x-tuple that has an alternative in the processed prefix.
func churnStep(t *testing.T, rng *rand.Rand, db *uncertain.Database, info *RankInfo, step int) string {
	t.Helper()
	prefixGroup := func() int {
		for {
			if g := db.AtRank(rng.Intn(info.Processed)).Group; len(db.GroupAt(g).RealTuples()) > 0 {
				return g
			}
		}
	}
	switch step % 3 {
	case 0:
		top := db.AtRank(0).Score
		ts := []uncertain.Tuple{
			{ID: fmt.Sprintf("n%d.0", step), Attrs: []float64{top - rng.Float64()*50}, Prob: 0.7},
			{ID: fmt.Sprintf("n%d.1", step), Attrs: []float64{top - rng.Float64()*100}, Prob: 0.2},
		}
		if err := db.InsertXTuple(fmt.Sprintf("N%d", step), ts...); err != nil {
			t.Fatal(err)
		}
		return "insert near the top"
	case 1:
		if err := db.DeleteXTuple(prefixGroup()); err != nil {
			t.Fatal(err)
		}
		return "delete"
	default:
		g := prefixGroup()
		real := db.GroupAt(g).RealTuples()
		probs := make([]float64, len(real))
		for i := range probs {
			probs[i] = 0.9 * rng.Float64() / float64(len(probs))
		}
		probs[0] += 0.05
		if err := db.Reweight(g, probs); err != nil {
			t.Fatal(err)
		}
		return "reweight"
	}
}

// assertScanIdentical extends assertBitIdentical to everything a scan
// records for later resumes: every checkpoint (position, F bits, slot
// count, full groups, rebuilds) and the slot-write log and slot table.
func assertScanIdentical(t *testing.T, stage string, got, want *RankInfo) {
	t.Helper()
	assertBitIdentical(t, stage, got, want)
	if len(got.ckpts) != len(want.ckpts) {
		t.Fatalf("%s: %d checkpoints, serial %d", stage, len(got.ckpts), len(want.ckpts))
	}
	for i, c := range got.ckpts {
		w := want.ckpts[i]
		if c.pos != w.pos || c.slots != w.slots || c.fullGroups != w.fullGroups || c.rebuilds != w.rebuilds {
			t.Fatalf("%s: checkpoint %d = %+v, serial %+v", stage, i, c, w)
		}
		if len(c.F) != len(w.F) {
			t.Fatalf("%s: checkpoint %d has %d F entries, serial %d", stage, i, len(c.F), len(w.F))
		}
		for j := range c.F {
			if c.F[j] != w.F[j] {
				t.Fatalf("%s: checkpoint %d F[%d] = %v, serial %v", stage, i, j, c.F[j], w.F[j])
			}
		}
	}
	if len(got.wslot) != len(want.wslot) || len(got.ids) != len(want.ids) {
		t.Fatalf("%s: log/slot lengths (%d, %d), serial (%d, %d)", stage,
			len(got.wslot), len(got.ids), len(want.wslot), len(want.ids))
	}
	for i := range got.wslot {
		if got.wslot[i] != want.wslot[i] || got.wq[i] != want.wq[i] {
			t.Fatalf("%s: log entry %d = (%d, %v), serial (%d, %v)", stage, i,
				got.wslot[i], got.wq[i], want.wslot[i], want.wq[i])
		}
	}
	for s := range got.ids {
		if got.ids[s] != want.ids[s] || got.gidx[s] != want.gidx[s] {
			t.Fatalf("%s: slot %d = (%p, %d), serial (%p, %d)", stage, s,
				got.ids[s], got.gidx[s], want.ids[s], want.gidx[s])
		}
	}
}

// TestExclusionWorkerCountBitIdentical is the worker-count battery: on a
// churned 10⁴-x-tuple database, fresh and resumed scans with 2, 3 and 4
// exclusion workers (no threshold) must record exactly what the serial
// scan records — TopK, rho, Processed, Rebuilds, checkpoints and logs —
// with and without rank probabilities, over the database itself and over
// a source whose group numbering differs from the x-tuples' own.
func TestExclusionWorkerCountBitIdentical(t *testing.T) {
	const k = 15
	m, steps := 10_000, 12
	if testing.Short() {
		m, steps = 2_000, 6
	}
	for _, keepRho := range []bool{true, false} {
		for _, opaque := range []bool{false, true} {
			name := fmt.Sprintf("rho=%v/opaque=%v", keepRho, opaque)
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(24))
				db := churnDB(t, rng, m)
				src := Source(db)
				if opaque {
					src = swapped{db}
				}
				scan := func() *RankInfo {
					var info *RankInfo
					var err error
					if keepRho {
						info, err = RankProbabilities(src, k)
					} else {
						info, err = TopKProbabilities(src, k)
					}
					if err != nil {
						t.Fatal(err)
					}
					return info
				}
				// each runs fn at every worker count and checks the
				// parallel results against the serial one.
				each := func(stage string, fn func() *RankInfo) *RankInfo {
					var serial *RankInfo
					withExclWorkers(t, 1, func() { serial = fn() })
					for w := 2; w <= maxExclWorkers; w++ {
						withExclWorkers(t, w, func() {
							assertScanIdentical(t, fmt.Sprintf("%s, %d workers", stage, w), fn(), serial)
						})
					}
					return serial
				}
				prior := each("fresh", scan)
				if prior.Rebuilds < 8*maxExclWorkers {
					t.Fatalf("fresh scan has %d exclusion positions; the battery needs a deep prefix", prior.Rebuilds)
				}
				version := db.Version()
				replayed := 0
				for step := 0; step < steps; step++ {
					label := churnStep(t, rng, db, prior, step)
					wm, ok := db.DirtySince(version)
					if !ok {
						t.Fatalf("step %d (%s): no watermark", step, label)
					}
					version = db.Version()
					stage := fmt.Sprintf("step %d (%s, watermark %d)", step, label, wm)
					resumed := each(stage+" resumed", func() *RankInfo {
						info, err := Resume(src, prior, wm)
						if err != nil {
							t.Fatal(err)
						}
						return info
					})
					fresh := each(stage+" fresh", scan)
					assertBitIdentical(t, stage+" resumed vs fresh", resumed, fresh)
					if wm < prior.Processed {
						replayed++
					}
					prior = resumed
				}
				if replayed == 0 {
					t.Fatal("no mutation landed inside the processed prefix; resumed replays untested")
				}
			})
		}
	}
}

// TestExclusionWorkersAutomatic pins the automatic count: the threshold
// keeps a scan with few exclusion positions on one worker, and the count
// never exceeds maxExclWorkers or the exclusion positions.
func TestExclusionWorkersAutomatic(t *testing.T) {
	withExclWorkers(t, 0, func() {
		for _, r := range []int{0, 1, minHelperRows, 2*minHelperRows - 1} {
			if w := exclWorkers(r); w != 1 {
				t.Errorf("exclWorkers(%d) = %d, want 1 below the threshold", r, w)
			}
		}
		if w := exclWorkers(2 * minHelperRows); runtime.GOMAXPROCS(0) >= 2 && w != 2 {
			t.Errorf("exclWorkers(%d) = %d, want 2 at the threshold", 2*minHelperRows, w)
		}
		if w := exclWorkers(1 << 20); w < 1 || w > maxExclWorkers {
			t.Errorf("exclWorkers(2^20) = %d, want 1..%d", w, maxExclWorkers)
		}
	})
	withExclWorkers(t, 4, func() {
		if w := exclWorkers(3); w != 3 {
			t.Errorf("forced exclWorkers(3) = %d, want 3 (one row each)", w)
		}
	})
}
