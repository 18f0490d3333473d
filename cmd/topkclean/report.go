package main

import (
	"flag"
	"fmt"
	"io"

	topkclean "github.com/probdb/topkclean"
	"github.com/probdb/topkclean/internal/exp"
)

// cmdReport produces a single consolidated quality report for a dataset:
// statistics, query answers, the quality score and how it decomposes over
// x-tuples, the best cleaning candidates, and the budget/quality trade-off
// curve. It is the "give me the whole picture" command an operator runs
// before deciding on a cleaning campaign.
func cmdReport(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	data := fs.String("data", "", "dataset file (.csv or .json)")
	k := fs.Int("k", 15, "query size k")
	threshold := fs.Float64("threshold", 0.1, "PT-k probability threshold, in [0, 1]")
	rank := fs.String("rank", "first", "ranking function: first | sum")
	specPath := fs.String("spec", "", "cleaning spec JSON (default: generated)")
	seed := fs.Int64("seed", 1, "random seed for spec generation")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("-data is required")
	}
	db, err := loadDB(*data, *rank)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Quality report: %s\n\n", *data)
	fmt.Fprintf(w, "dataset: %s\n\n", db.ComputeStats())

	// One engine session serves the whole report: the query answers, the
	// quality-vs-k sweep, and the cleaning outlook share its memoized
	// rank-probability passes.
	eng, err := topkclean.New(db, topkclean.WithK(*k), topkclean.WithPTKThreshold(*threshold))
	if err != nil {
		return err
	}
	res, err := eng.Answers(runCtx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "top-%d query answers:\n", *k)
	fmt.Fprintf(w, "  U-kRanks:    %s\n", topkclean.FormatRanked(res.UKRanks))
	fmt.Fprintf(w, "  PT-k (T=%g): %s\n", *threshold, topkclean.FormatScored(res.PTK))
	fmt.Fprintf(w, "  Global-topk: %s\n\n", topkclean.FormatScored(res.GlobalTopK))
	fmt.Fprintf(w, "PWS-quality: %.6f (0 = certain; more negative = more ambiguous)\n\n", res.Quality)

	// Quality across k: how ambiguity grows with answer size.
	qtab := exp.NewTable("quality vs k", "k", "S")
	for _, kk := range []int{1, 5, 10, *k, 2 * *k} {
		if kk > db.NumGroups() || kk < 1 {
			continue
		}
		s, err := eng.QualityAt(runCtx, kk)
		if err != nil {
			return err
		}
		qtab.AddRow(kk, s)
	}
	if err := qtab.Render(w); err != nil {
		return err
	}

	// Cleaning outlook.
	spec, err := loadOrGenSpec(*specPath, db.NumGroups(), *seed)
	if err != nil {
		return err
	}
	ctx, err := eng.CleaningContext(runCtx, spec, 0)
	if err != nil {
		return err
	}
	cands, err := topkclean.CleaningCandidates(mustBudget(ctx, 1_000_000))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "cleanable ambiguity: %d x-tuples carry the whole quality deficit\n\n", len(cands))
	ctab := exp.NewTable("best cleaning candidates (improvement per unit cost)",
		"x-tuple", "removable deficit", "cost", "sc-prob", "gamma")
	limit := len(cands)
	if limit > 10 {
		limit = 10
	}
	for _, c := range cands[:limit] {
		ctab.AddRow(c.Name, c.Gain, c.Cost, c.SCProb, c.Gamma)
	}
	if err := ctab.Render(w); err != nil {
		return err
	}

	greedy, err := topkclean.LookupPlanner("greedy")
	if err != nil {
		return err
	}
	btab := exp.NewTable("budget vs expected quality (greedy plans)",
		"budget", "expected S after cleaning", "deficit removed")
	for _, c := range exp.LogSpacedInts(1, 10000, 9) {
		sub := mustBudget(ctx, c)
		plan, err := greedy.Plan(runCtx, sub)
		if err != nil {
			return err
		}
		imp := topkclean.ExpectedImprovement(sub, plan)
		frac := 0.0
		if res.Quality < 0 {
			frac = imp / -res.Quality
		}
		btab.AddRow(c, res.Quality+imp, fmt.Sprintf("%.1f%%", frac*100))
	}
	return btab.Render(w)
}

// mustBudget returns a copy of ctx with the given budget.
func mustBudget(ctx *topkclean.CleaningContext, budget int) *topkclean.CleaningContext {
	sub := *ctx
	sub.Budget = budget
	return &sub
}
