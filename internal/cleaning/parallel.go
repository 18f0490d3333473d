package cleaning

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/probdb/topkclean/internal/numeric"
)

// mcBlockSize is the number of trials per independently seeded simulation
// block. Seeding per fixed-size block — rather than per worker — makes the
// simulated improvement a pure function of (seed, trials): workers pull
// whole blocks, every block's stream is derived only from the block index,
// and the block sums are reduced in block order, so the result is
// bit-identical for any worker count (and for any GOMAXPROCS default).
const mcBlockSize = 64

// mcSeedStride decorrelates the per-block streams; it is an arbitrary prime
// comfortably larger than any realistic block count.
const mcSeedStride = 1_000_003

// MonteCarloImprovementParallelContext is MonteCarloImprovement fanned out
// over a pool of workers. Trials are partitioned into fixed-size blocks,
// each with its own random stream seeded deterministically from (seed,
// block index), and block results are combined in block order — so the
// result is bit-identical for any worker count, including the workers < 1
// default of GOMAXPROCS. Each trial simulates the cleaning agent and
// re-evaluates the cleaned database's quality — embarrassingly parallel
// work that dominates verification time on large databases.
//
// Every worker checks ctx between trials; a cancelled ctx makes the whole
// call return ctx.Err().
func MonteCarloImprovementParallelContext(ctx context.Context, c *Context, plan Plan, seed int64, trials, workers int) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if trials < 1 {
		return 0, fmt.Errorf("cleaning: trials must be positive")
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	blocks := (trials + mcBlockSize - 1) / mcBlockSize
	if workers > blocks {
		workers = blocks
	}
	sums := make([]numeric.Kahan, blocks)
	errs := make([]error, blocks)
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := int(atomic.AddInt64(&next, 1)) - 1
				if b >= blocks {
					return
				}
				rng := rand.New(rand.NewSource(seed + int64(b)*mcSeedStride))
				n := mcBlockSize
				if rest := trials - b*mcBlockSize; rest < n {
					n = rest
				}
				for i := 0; i < n; i++ {
					if err := ctx.Err(); err != nil {
						errs[b] = err
						return
					}
					out, err := Execute(c, plan, rng)
					if err != nil {
						errs[b] = err
						return
					}
					sums[b].Add(out.Improvement)
				}
			}
		}()
	}
	wg.Wait()
	// Reduce in block order: floating-point addition is not associative, so
	// a scheduling-dependent order would reintroduce run-to-run jitter.
	var total numeric.Kahan
	for b := 0; b < blocks; b++ {
		if errs[b] != nil {
			return 0, errs[b]
		}
		total.Add(sums[b].Sum())
	}
	return total.Sum() / float64(trials), nil
}
