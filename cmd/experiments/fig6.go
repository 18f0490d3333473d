package main

import (
	"context"
	"fmt"

	topkclean "github.com/probdb/topkclean"
	"github.com/probdb/topkclean/internal/exp"
	"github.com/probdb/topkclean/internal/gen"
	"github.com/probdb/topkclean/internal/uncertain"
)

// randReps is how many seeds the random planners are averaged over (their
// single-run improvement is noisy).
const randReps = 5

// planWith resolves a planner from the public registry, seeds it when it
// is randomized, and plans on c. The experiments go through the same
// registry as library users so the figures measure the shipped path.
func planWith(name string, seed int64, c *topkclean.CleaningContext) (topkclean.CleaningPlan, error) {
	p, err := topkclean.PlannerWithSeed(name, seed)
	if err != nil {
		return nil, err
	}
	return p.Plan(context.Background(), c)
}

// cleaningEngine builds a session engine on db for query size k; each
// figure reuses one engine so the TP evaluation behind every budget/pdf
// point is computed exactly once.
func cleaningEngine(db *uncertain.Database, k int) (*topkclean.Engine, error) {
	return topkclean.New(db, topkclean.WithK(k))
}

// cleaningContext prepares a planning context on the engine with the
// paper's default cleaning environment (costs U[1,10]) and budget.
func cleaningContext(cfg config, eng *topkclean.Engine, budget int, pdf gen.SCPdf) (*topkclean.CleaningContext, error) {
	spec, err := gen.CleanSpec(eng.DB().NumGroups(), 1, 10, pdf, cfg.seed+7)
	if err != nil {
		return nil, err
	}
	return eng.CleaningContext(context.Background(), spec, budget)
}

// improvements runs all four planners on the context and returns their
// expected improvements (random ones averaged over randReps seeds).
func improvements(ctx *topkclean.CleaningContext) (dp, greedy, randP, randU float64, err error) {
	dpPlan, err := planWith("dp", 0, ctx)
	if err != nil {
		return
	}
	dp = topkclean.ExpectedImprovement(ctx, dpPlan)
	grPlan, err := planWith("greedy", 0, ctx)
	if err != nil {
		return
	}
	greedy = topkclean.ExpectedImprovement(ctx, grPlan)
	for i := 0; i < randReps; i++ {
		var p topkclean.CleaningPlan
		p, err = planWith("randp", int64(100+i), ctx)
		if err != nil {
			return
		}
		randP += topkclean.ExpectedImprovement(ctx, p) / randReps
		p, err = planWith("randu", int64(200+i), ctx)
		if err != nil {
			return
		}
		randU += topkclean.ExpectedImprovement(ctx, p) / randReps
	}
	return
}

// budgetSweep is the log-spaced budget axis of Figures 6(a)/6(d)/6(f).
func budgetSweep(cfg config) []int {
	if cfg.quick {
		return []int{1, 10, 100, 1000}
	}
	return []int{1, 10, 100, 1000, 10000, 100000}
}

// runFig6a: expected improvement vs budget on the synthetic dataset.
// Paper shape: DP >= Greedy (nearly equal) >= RandP >= RandU; saturation
// toward |S| for large C.
func runFig6a(cfg config) error {
	db, err := synthetic(cfg)
	if err != nil {
		return err
	}
	return improvementVsBudget(cfg, db, "Figure 6(a): expected improvement I vs budget C (synthetic, k=15)")
}

// runFig6f: the same on MOV.
func runFig6f(cfg config) error {
	db, err := mov(cfg)
	if err != nil {
		return err
	}
	return improvementVsBudget(cfg, db, "Figure 6(f): expected improvement I vs budget C (MOV, k=15)")
}

func improvementVsBudget(cfg config, db *uncertain.Database, title string) error {
	eng, err := cleaningEngine(db, defaultK)
	if err != nil {
		return err
	}
	s, err := eng.Quality(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.out, "initial quality S = %.6f (paper synthetic: -66.797551); max possible I = %.6f\n\n", s, -s)
	tab := exp.NewTable(title, "C", "DP", "Greedy", "RandP", "RandU")
	for _, c := range budgetSweep(cfg) {
		ctx, err := cleaningContext(cfg, eng, c, gen.UniformSC{Lo: 0, Hi: 1})
		if err != nil {
			return err
		}
		dp, gr, rp, ru, err := improvements(ctx)
		if err != nil {
			return err
		}
		tab.AddRow(c, dp, gr, rp, ru)
	}
	return renderTable(cfg, tab)
}

// runFig6b: expected improvement under different sc-pdfs at C=100. Paper
// shape: DP/Greedy grow with the sc-pdf's variance (more x-tuples with
// high sc-probability to exploit); RandP/RandU roughly flat.
func runFig6b(cfg config) error {
	db, err := synthetic(cfg)
	if err != nil {
		return err
	}
	eng, err := cleaningEngine(db, defaultK)
	if err != nil {
		return err
	}
	pdfs := []gen.SCPdf{
		gen.NormalSC{Mean: 0.5, Sigma: 0.13},
		gen.NormalSC{Mean: 0.5, Sigma: 0.167},
		gen.NormalSC{Mean: 0.5, Sigma: 0.3},
		gen.UniformSC{Lo: 0, Hi: 1},
	}
	tab := exp.NewTable("Figure 6(b): expected improvement I vs sc-pdf (C=100)", "sc-pdf", "DP", "Greedy", "RandP", "RandU")
	for _, pdf := range pdfs {
		ctx, err := cleaningContext(cfg, eng, 100, pdf)
		if err != nil {
			return err
		}
		dp, gr, rp, ru, err := improvements(ctx)
		if err != nil {
			return err
		}
		tab.AddRow(pdf.String(), dp, gr, rp, ru)
	}
	return renderTable(cfg, tab)
}

// runFig6c: expected improvement vs average sc-probability (sc-pdf
// U[x, 1]). Paper shape: every planner improves as the average grows.
func runFig6c(cfg config) error {
	db, err := synthetic(cfg)
	if err != nil {
		return err
	}
	return improvementVsAvgSC(cfg, db, "Figure 6(c): expected improvement I vs avg sc-probability (synthetic, C=100)")
}

// runFig6g: the same on MOV.
func runFig6g(cfg config) error {
	db, err := mov(cfg)
	if err != nil {
		return err
	}
	return improvementVsAvgSC(cfg, db, "Figure 6(g): expected improvement I vs avg sc-probability (MOV, C=100)")
}

func improvementVsAvgSC(cfg config, db *uncertain.Database, title string) error {
	eng, err := cleaningEngine(db, defaultK)
	if err != nil {
		return err
	}
	tab := exp.NewTable(title, "avg sc-prob", "DP", "Greedy", "RandP", "RandU")
	for _, lo := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1} {
		ctx, err := cleaningContext(cfg, eng, 100, gen.UniformSC{Lo: lo, Hi: 1})
		if err != nil {
			return err
		}
		dp, gr, rp, ru, err := improvements(ctx)
		if err != nil {
			return err
		}
		tab.AddRow((1+lo)/2, dp, gr, rp, ru)
	}
	return renderTable(cfg, tab)
}

// runFig6d: planning time vs budget. Paper shape: DP far above the
// heuristics and growing ~quadratically with C; Greedy above RandP above
// RandU.
func runFig6d(cfg config) error {
	db, err := synthetic(cfg)
	if err != nil {
		return err
	}
	eng, err := cleaningEngine(db, defaultK)
	if err != nil {
		return err
	}
	tab := exp.NewTable("Figure 6(d): planning time (ms) vs budget C", "C", "DP", "Greedy", "RandP", "RandU")
	for _, c := range budgetSweep(cfg) {
		ctx, err := cleaningContext(cfg, eng, c, gen.UniformSC{Lo: 0, Hi: 1})
		if err != nil {
			return err
		}
		var perr error
		dpMs := exp.TimeMs(func() { _, perr = planWith("dp", 0, ctx) })
		if perr != nil {
			return perr
		}
		grMs := exp.BenchMs(func() { _, perr = planWith("greedy", 0, ctx) })
		if perr != nil {
			return perr
		}
		rpMs := exp.BenchMs(func() { _, perr = planWith("randp", 1, ctx) })
		if perr != nil {
			return perr
		}
		ruMs := exp.BenchMs(func() { _, perr = planWith("randu", 1, ctx) })
		if perr != nil {
			return perr
		}
		tab.AddRow(c, dpMs, grMs, rpMs, ruMs)
	}
	return renderTable(cfg, tab)
}

// runFig6e: planning time vs k at C=100. Paper shape: DP and Greedy grow
// mildly with k (|Z| grows: 79 at k=15 to 98 at k=30); the random planners
// are flat.
func runFig6e(cfg config) error {
	db, err := synthetic(cfg)
	if err != nil {
		return err
	}
	tab := exp.NewTable("Figure 6(e): planning time (ms) vs k (C=100)", "k", "|Z|", "DP", "Greedy", "RandP", "RandU")
	for _, k := range []int{5, 10, 15, 20, 25, 30} {
		if k > db.NumGroups() {
			continue
		}
		eng, err := cleaningEngine(db, k)
		if err != nil {
			return err
		}
		ctx, err := cleaningContext(cfg, eng, 100, gen.UniformSC{Lo: 0, Hi: 1})
		if err != nil {
			return err
		}
		// |Z|: x-tuples with nonzero gain (Lemma 5's candidate set).
		z := 0
		for _, g := range ctx.Eval.Gains() {
			if g.Value < -1e-15 {
				z++
			}
		}
		var perr error
		dpMs := exp.BenchMs(func() { _, perr = planWith("dp", 0, ctx) })
		if perr != nil {
			return perr
		}
		grMs := exp.BenchMs(func() { _, perr = planWith("greedy", 0, ctx) })
		if perr != nil {
			return perr
		}
		rpMs := exp.BenchMs(func() { _, perr = planWith("randp", 1, ctx) })
		if perr != nil {
			return perr
		}
		ruMs := exp.BenchMs(func() { _, perr = planWith("randu", 1, ctx) })
		if perr != nil {
			return perr
		}
		tab.AddRow(k, z, dpMs, grMs, rpMs, ruMs)
	}
	return renderTable(cfg, tab)
}
