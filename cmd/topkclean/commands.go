package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	topkclean "github.com/probdb/topkclean"
	"github.com/probdb/topkclean/internal/store"
)

// runCtx is the context every command threads into the engine; main swaps
// in a signal-aware context so Ctrl-C aborts long-running planners.
var runCtx = context.Background()

// loadDB reads a dataset by extension (.csv or .json) and ranks it by the
// requested function.
func loadDB(path, rankName string) (*topkclean.Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rank, err := rankByName(rankName)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".json") {
		return topkclean.ReadJSON(f, rank)
	}
	return topkclean.ReadCSV(f, rank)
}

// rankByName resolves the -rank flag through the library's shared
// registry (the same names the daemon's tenant.json persists).
func rankByName(rankName string) (topkclean.RankFunc, error) {
	return topkclean.RankByName(rankName)
}

// saveStore persists a built database as a fresh durable store directory
// (WAL + checkpoint; see PERSISTENCE.md) that topkcleand -store or
// `topkclean query -store` can open later. rankName records the ranking
// function in the daemon's tenant.json, so a daemon recovering the
// directory supplies the right one (e.g. "sum" for mov datasets).
func saveStore(dir string, db *topkclean.Database, rankName string) error {
	backend, err := store.OpenDir(dir)
	if err != nil {
		return err
	}
	sdb, err := store.Create(backend, db)
	if err != nil {
		backend.Close()
		return err
	}
	if err := sdb.Close(); err != nil { // writes the checkpoint and syncs
		return err
	}
	meta, err := json.Marshal(map[string]string{"rank": rankName})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "tenant.json"), meta, 0o644)
}

// openStore recovers a database from a durable store directory. The rank
// function must be the one the database was built with; the recovered
// rank order is verified against it.
func openStore(dir, rankName string) (*store.DB, error) {
	rank, err := rankByName(rankName)
	if err != nil {
		return nil, err
	}
	backend, err := store.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	sdb, err := store.Open(backend, rank)
	if err != nil {
		backend.Close()
		return nil, err
	}
	return sdb, nil
}

// loadOrGenSpec loads a cleaning spec from specPath, or generates the
// paper's default spec when specPath is empty.
func loadOrGenSpec(specPath string, m int, seed int64) (topkclean.CleaningSpec, error) {
	if specPath == "" {
		return topkclean.DefaultCleaningSpec(m, seed)
	}
	f, err := os.Open(specPath)
	if err != nil {
		return topkclean.CleaningSpec{}, err
	}
	defer f.Close()
	return topkclean.ReadSpecJSON(f, m)
}

func cmdGen(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	kind := fs.String("kind", "synthetic", "dataset kind: synthetic | mov")
	xtuples := fs.Int("xtuples", 1000, "number of x-tuples")
	sigma := fs.Float64("sigma", 100, "Gaussian sigma (synthetic)")
	uniform := fs.Bool("uniform", false, "use a uniform uncertainty pdf (synthetic)")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("o", "", "output file (.csv or .json); default stdout CSV")
	specOut := fs.String("spec-o", "", "also write a default cleaning spec (JSON) here")
	storeOut := fs.String("store", "", "also save the dataset as a durable store directory (query it with 'query -store', or serve it by placing it under a topkcleand -store root; mov datasets need -rank sum on 'query -store')")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var db *topkclean.Database
	var err error
	switch *kind {
	case "synthetic":
		cfg := topkclean.DefaultSyntheticConfig()
		cfg.NumXTuples = *xtuples
		cfg.Sigma = *sigma
		cfg.Seed = *seed
		if *uniform {
			cfg.PDF = topkclean.PDFUniform
		}
		db, err = topkclean.GenerateSynthetic(cfg)
	case "mov":
		cfg := topkclean.DefaultMOVConfig()
		cfg.NumXTuples = *xtuples
		cfg.Seed = *seed
		db, err = topkclean.GenerateMOV(cfg)
	case "paper":
		db = topkclean.PaperExampleDatabase()
	default:
		return fmt.Errorf("unknown kind %q (want synthetic|mov|paper)", *kind)
	}
	if err != nil {
		return err
	}
	dst := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	if strings.HasSuffix(*out, ".json") {
		err = topkclean.WriteJSON(dst, db)
	} else {
		err = topkclean.WriteCSV(dst, db)
	}
	if err != nil {
		return err
	}
	if *specOut != "" {
		spec, err := topkclean.DefaultCleaningSpec(db.NumGroups(), *seed+1)
		if err != nil {
			return err
		}
		f, err := os.Create(*specOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := topkclean.WriteSpecJSON(f, spec); err != nil {
			return err
		}
	}
	if *storeOut != "" {
		rankName := "first"
		if *kind == "mov" {
			rankName = "sum" // GenerateMOV builds with SumOfAttrs
		}
		if err := saveStore(*storeOut, db, rankName); err != nil {
			return err
		}
		fmt.Fprintf(w, "saved durable store at %s (version %d)\n", *storeOut, db.Version())
	}
	fmt.Fprintf(w, "generated %s\n", db.ComputeStats())
	return nil
}

func cmdQuality(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("quality", flag.ExitOnError)
	data := fs.String("data", "", "dataset file (.csv or .json)")
	k := fs.Int("k", 15, "query size k")
	rank := fs.String("rank", "first", "ranking function: first | sum")
	algo := fs.String("algo", "tp", "quality algorithm: tp | pwr | pw")
	dist := fs.Bool("dist", false, "also print the pw-result distribution (PWR; small k only)")
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
	var s float64
	switch *algo {
	case "tp":
		var eng *topkclean.Engine
		if eng, err = topkclean.New(db, topkclean.WithK(*k)); err == nil {
			s, err = eng.Quality(runCtx)
		}
	case "pwr":
		s, err = topkclean.QualityPWR(db, *k)
	case "pw":
		s, err = topkclean.QualityPW(db, *k)
	default:
		return fmt.Errorf("unknown algorithm %q (want tp|pwr|pw)", *algo)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "dataset: %s\n", db.ComputeStats())
	fmt.Fprintf(w, "PWS-quality of top-%d query (%s): %.6f\n", *k, *algo, s)
	if *dist {
		d, err := topkclean.PWResultDistribution(db, *k)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\npw-result distribution (%d possible answers):\n", len(d))
		limit := len(d)
		if limit > 25 {
			limit = 25
		}
		for _, r := range d[:limit] {
			fmt.Fprintf(w, "  %v\n", r)
		}
		if len(d) > limit {
			fmt.Fprintf(w, "  ... and %d more\n", len(d)-limit)
		}
	}
	return nil
}

func cmdQuery(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	data := fs.String("data", "", "dataset file (.csv or .json)")
	storeDir := fs.String("store", "", "load the database from a durable store directory instead of -data")
	k := fs.Int("k", 15, "query size k")
	threshold := fs.Float64("threshold", 0.1, "PT-k probability threshold, in [0, 1]")
	rank := fs.String("rank", "first", "ranking function: first | sum")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var db *topkclean.Database
	switch {
	case *data != "" && *storeDir != "":
		return fmt.Errorf("-data and -store are mutually exclusive")
	case *storeDir != "":
		sdb, err := openStore(*storeDir, *rank)
		if err != nil {
			return err
		}
		defer sdb.Close()
		db = sdb.DB()
		fmt.Fprintf(w, "store: %s recovered at version %d\n", *storeDir, db.Version())
	case *data != "":
		var err error
		if db, err = loadDB(*data, *rank); err != nil {
			return err
		}
	default:
		return fmt.Errorf("-data or -store is required")
	}
	eng, err := topkclean.New(db, topkclean.WithK(*k), topkclean.WithPTKThreshold(*threshold))
	if err != nil {
		return err
	}
	res, err := eng.Answers(runCtx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "dataset: %s\n\n", db.ComputeStats())
	fmt.Fprintf(w, "U-kRanks:    %s\n", topkclean.FormatRanked(res.UKRanks))
	fmt.Fprintf(w, "PT-%d (T=%g): %s\n", *k, *threshold, topkclean.FormatScored(res.PTK))
	fmt.Fprintf(w, "Global-topk: %s\n", topkclean.FormatScored(res.GlobalTopK))
	fmt.Fprintf(w, "PWS-quality: %.6f\n", res.Quality)
	return nil
}

func cmdClean(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("clean", flag.ExitOnError)
	data := fs.String("data", "", "dataset file (.csv or .json)")
	k := fs.Int("k", 15, "query size k")
	rank := fs.String("rank", "first", "ranking function: first | sum")
	budget := fs.Int("budget", 100, "cleaning budget C")
	method := fs.String("method", "greedy", "planner: dp | greedy | randp | randu")
	specPath := fs.String("spec", "", "cleaning spec JSON (default: generated)")
	seed := fs.Int64("seed", 1, "random seed (spec generation, random planners, and the cleaning agent)")
	explain := fs.Bool("explain", false, "also list candidate x-tuples ranked by improvement per cost")
	apply := fs.Bool("apply", false, "execute the plan onto the database and show before/after answers")
	threshold := fs.Float64("threshold", 0.1, "PT-k probability threshold for -apply answers")
	out := fs.String("o", "", "with -apply: write the cleaned dataset here (.csv or .json)")
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
	spec, err := loadOrGenSpec(*specPath, db.NumGroups(), *seed)
	if err != nil {
		return err
	}
	eng, err := topkclean.New(db, topkclean.WithK(*k), topkclean.WithSeed(*seed),
		topkclean.WithPTKThreshold(*threshold))
	if err != nil {
		return err
	}
	var before *topkclean.Result
	if *apply {
		if before, err = eng.Answers(runCtx); err != nil {
			return err
		}
	}
	plan, cctx, err := eng.PlanCleaning(runCtx, *method, spec, *budget)
	if err != nil {
		return err
	}
	imp := topkclean.ExpectedImprovement(cctx, plan)
	fmt.Fprintf(w, "quality before cleaning: %.6f\n", cctx.Eval.S)
	fmt.Fprintf(w, "plan (%s): %d x-tuples, %d operations, cost %d of %d\n",
		*method, plan.Groups(), plan.Ops(), plan.TotalCost(spec), *budget)
	fmt.Fprintf(w, "expected improvement:    %.6f\n", imp)
	fmt.Fprintf(w, "expected quality after:  %.6f\n", cctx.Eval.S+imp)
	for _, l := range plan.SortedGroups() {
		g, err := db.Group(l)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  clean %-12s x%d  (cost %d each, sc-prob %.2f)\n",
			g.Name, plan[l], spec.CostOf(l), spec.SCProbOf(l))
	}
	if *explain {
		cands, err := topkclean.CleaningCandidates(cctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\ncandidate x-tuples (by improvement per unit cost):\n")
		limit := len(cands)
		if limit > 15 {
			limit = 15
		}
		for _, c := range cands[:limit] {
			fmt.Fprintf(w, "  %-12s gain=%.4f cost=%d sc-prob=%.2f gamma=%.4f\n",
				c.Name, c.Gain, c.Cost, c.SCProb, c.Gamma)
		}
		if len(cands) > limit {
			fmt.Fprintf(w, "  ... and %d more\n", len(cands)-limit)
		}
	}
	if *apply {
		outcome, err := eng.ApplyCleaning(runCtx, cctx, plan, nil)
		if err != nil {
			return err
		}
		after, err := eng.Answers(runCtx)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\napplied: %d of %d operations used (cost %d of %d; early successes refund), %d x-tuples resolved\n",
			outcome.OpsUsed, outcome.OpsPlanned, outcome.CostUsed, outcome.CostPlanned, len(outcome.Choices))
		fmt.Fprintf(w, "database now at version %d\n\n", db.Version())
		fmt.Fprintf(w, "                before                          after\n")
		fmt.Fprintf(w, "U-kRanks:    %-30s  %s\n",
			topkclean.FormatRanked(before.UKRanks), topkclean.FormatRanked(after.UKRanks))
		fmt.Fprintf(w, "PT-%d (T=%g): %-30s  %s\n",
			*k, *threshold, topkclean.FormatScored(before.PTK), topkclean.FormatScored(after.PTK))
		fmt.Fprintf(w, "Global-topk: %-30s  %s\n",
			topkclean.FormatScored(before.GlobalTopK), topkclean.FormatScored(after.GlobalTopK))
		fmt.Fprintf(w, "PWS-quality: %-30.6f  %.6f (realized improvement %.6f)\n",
			before.Quality, after.Quality, outcome.Improvement)
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return err
			}
			defer f.Close()
			if strings.HasSuffix(*out, ".json") {
				err = topkclean.WriteJSON(f, db)
			} else {
				err = topkclean.WriteCSV(f, db)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func cmdVerify(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	data := fs.String("data", "", "dataset file (.csv or .json)")
	k := fs.Int("k", 15, "query size k")
	rank := fs.String("rank", "first", "ranking function: first | sum")
	budget := fs.Int("budget", 100, "cleaning budget C")
	method := fs.String("method", "greedy", "planner: dp | greedy | randp | randu")
	specPath := fs.String("spec", "", "cleaning spec JSON (default: generated)")
	seed := fs.Int64("seed", 1, "random seed")
	trials := fs.Int("trials", 2000, "Monte-Carlo trials")
	workers := fs.Int("workers", 0, "simulation workers (0 = all CPUs)")
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
	spec, err := loadOrGenSpec(*specPath, db.NumGroups(), *seed)
	if err != nil {
		return err
	}
	eng, err := topkclean.New(db, topkclean.WithK(*k), topkclean.WithSeed(*seed),
		topkclean.WithParallelism(*workers))
	if err != nil {
		return err
	}
	plan, cctx, err := eng.PlanCleaning(runCtx, *method, spec, *budget)
	if err != nil {
		return err
	}
	analytical, simulated, err := eng.VerifyImprovement(runCtx, cctx, plan, *trials)
	if err != nil {
		return err
	}
	diff := analytical - simulated
	if diff < 0 {
		diff = -diff
	}
	fmt.Fprintf(w, "plan (%s): %d operations on %d x-tuples, cost %d\n",
		*method, plan.Ops(), plan.Groups(), plan.TotalCost(spec))
	fmt.Fprintf(w, "expected improvement (Theorem 2): %.6f\n", analytical)
	fmt.Fprintf(w, "simulated improvement (%d trials): %.6f\n", *trials, simulated)
	fmt.Fprintf(w, "absolute difference: %.6f\n", diff)
	return nil
}

func cmdSimulate(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	data := fs.String("data", "", "dataset file (.csv or .json)")
	k := fs.Int("k", 15, "query size k")
	rank := fs.String("rank", "first", "ranking function: first | sum")
	budget := fs.Int("budget", 100, "cleaning budget C")
	method := fs.String("method", "greedy", "planner: dp | greedy | randp | randu")
	specPath := fs.String("spec", "", "cleaning spec JSON (default: generated)")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("o", "", "write the cleaned dataset here (.csv or .json)")
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
	spec, err := loadOrGenSpec(*specPath, db.NumGroups(), *seed)
	if err != nil {
		return err
	}
	eng, err := topkclean.New(db, topkclean.WithK(*k), topkclean.WithSeed(*seed))
	if err != nil {
		return err
	}
	plan, cctx, err := eng.PlanCleaning(runCtx, *method, spec, *budget)
	if err != nil {
		return err
	}
	outcome, err := topkclean.ExecuteCleaning(cctx, plan, rand.New(rand.NewSource(*seed+99)))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "quality before:  %.6f\n", cctx.Eval.S)
	fmt.Fprintf(w, "expected after:  %.6f\n", cctx.Eval.S+topkclean.ExpectedImprovement(cctx, plan))
	fmt.Fprintf(w, "realized after:  %.6f (improvement %.6f)\n", outcome.NewQuality, outcome.Improvement)
	fmt.Fprintf(w, "operations: %d of %d planned; cost %d of %d planned (early successes refund)\n",
		outcome.OpsUsed, outcome.OpsPlanned, outcome.CostUsed, outcome.CostPlanned)
	fmt.Fprintf(w, "x-tuples cleaned successfully: %d of %d selected\n", len(outcome.Choices), plan.Groups())
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if strings.HasSuffix(*out, ".json") {
			return topkclean.WriteJSON(f, outcome.DB)
		}
		return topkclean.WriteCSV(f, outcome.DB)
	}
	return nil
}
