// Command perfbench is the repository's end-to-end benchmark: it starts
// the real topkcleand binary, drives it over loopback HTTP with a seeded,
// fixed-length, closed-loop request sequence, checks every answer against
// an in-process replay of the same sequence, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a traced
// in-process replay (--trace 1). See README.md for the workloads, the
// metrics and what each per-layer metric should move.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash _perfbench/run.sh --workload churn_requery --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	tiny     bool
	daemon   string
	workdir  string
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	var size string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (read_hot | churn_requery | durable_clean | sharded_churn)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed sends the same requests over the same data")
	flag.IntVar(&cfg.seconds, "seconds", 10, "nominal measured seconds; fixes the request count through each workload's nominal rate")
	flag.IntVar(&trace, "trace", 0, "1: print the per-layer metrics of the traced in-process replay instead of the end-to-end metrics")
	flag.StringVar(&size, "size", "full", "full | tiny (tiny databases and sequences, for the benchmark's own tests)")
	flag.StringVar(&cfg.daemon, "daemon", "", "topkcleand binary")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_run", "directory for stores, logs, spans and results")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.tiny = size == "tiny"
	if err := validate(cfg, trace, size); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, report, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range report {
		fmt.Println(line)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func validate(cfg config, trace int, size string) error {
	if _, err := workloadByName(cfg.workload); err != nil {
		return err
	}
	switch {
	case cfg.seconds < 1:
		return errors.New("--seconds must be at least 1")
	case trace != 0 && trace != 1:
		return errors.New("--trace must be 0 or 1")
	case size != "full" && size != "tiny":
		return errors.New("--size must be full or tiny")
	case cfg.daemon == "":
		return errors.New("--daemon names the topkcleand binary")
	}
	return nil
}

// run makes one benchmark run: replay in process, set the daemon up
// three times, warm it, measure, check the final answers (and, on
// durable_clean, a crash restart), then for --trace 1 replay every
// workload through the traced engine and layer lanes.
func run(ctx context.Context, cfg config) (*result, []string, error) {
	w, _ := workloadByName(cfg.workload)
	sz := sizeFor(w, cfg.seconds, cfg.tiny)
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("%s-seed%d", w.name, cfg.seed))
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	spinBefore := spinProbe()
	start := time.Now()
	pa, err := runPassA(ctx, w, sz, cfg.seed, filepath.Join(dir, "replay"))
	if err != nil {
		return nil, nil, err
	}
	// The replay's database is garbage now; hand its memory back before
	// the daemon builds its own.
	runtime.GC()
	debug.FreeOSMemory()

	replayed := time.Since(start)
	hr, err := runHTTP(ctx, cfg, w, sz, dir, pa.plan)
	if err != nil {
		return nil, nil, err
	}
	served := time.Since(start) - replayed
	spinAfter := spinProbe()

	res := &result{Attempted: hr.attempted, Failed: hr.failed, Metrics: map[string]metric{}}
	report := []string{
		fmt.Sprintf("# perfbench %s seed=%d seconds=%d trace=%v size=%s", w.name, cfg.seed, cfg.seconds, cfg.trace, map[bool]string{true: "tiny", false: "full"}[cfg.tiny]),
		fmt.Sprintf("# run: go=%s nproc=%d GOMAXPROCS=%d spin_probe_before_ms=%.1f spin_probe_after_ms=%.1f",
			runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), ms(spinBefore), ms(spinAfter)),
		fmt.Sprintf("# workload: %d x-tuples, %d connection(s), %d warm-up + %d measured requests, closed loop", sz.xtuples, w.conns, pa.plan.count(false), pa.plan.count(true)),
		fmt.Sprintf("# phases: replay %.1fs, daemon (set-ups, warm-up, measured, checks) %.1fs", replayed.Seconds(), served.Seconds()),
	}
	report = append(report, hr.report()...)

	var layers map[string]metric
	if cfg.trace {
		var lreport []string
		layers, lreport, err = traceAll(ctx, cfg, w, hr, dir)
		if err != nil {
			hr.fail("traced replay: " + err.Error())
		}
		report = append(report, lreport...)
	}
	if hr.failed > 0 {
		report = append(report, "# FAILED: "+hr.firstErr)
	}
	res.Failed = hr.failed
	res.Attempted = hr.attempted
	res.Correct = hr.failed == 0
	if cfg.trace {
		for _, d := range perLayerDefs() {
			m, ok := layers[d.name]
			if !ok {
				m = metric{Unit: d.unit}
				res.Correct = false
				report = append(report, "# MISSING per-layer metric "+d.name)
			}
			res.Metrics[d.name] = m
		}
	} else {
		for _, d := range endToEndDefs {
			res.Metrics[d.name] = metric{Value: hr.metric(d.name), Unit: d.unit}
		}
	}
	if err := writeResult(cfg, w, res, report); err != nil {
		return nil, nil, err
	}
	return res, report, dropStores(dir)
}

// dropStores removes a finished run's databases from disk, keeping the
// daemon log.
func dropStores(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// writeResult keeps the run's report and result line under the workdir.
func writeResult(cfg config, w *workload, res *result, report []string) error {
	rdir := filepath.Join(cfg.workdir, "results")
	if err := os.MkdirAll(rdir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Report []string `json:"report"`
		Result *result  `json:"result"`
	}{report, res}, "", "  ")
	if err != nil {
		return err
	}
	name := w.name + "-seed" + strconv.FormatInt(cfg.seed, 10) + "-trace" + strconv.FormatBool(cfg.trace) + ".json"
	return os.WriteFile(filepath.Join(rdir, name), data, 0o644)
}
