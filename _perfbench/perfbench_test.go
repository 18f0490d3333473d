package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestBenchmarkJSON pins BENCHMARK.json to the metric and workload tables
// the benchmark prints from, and to the file's contract.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := top[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(top) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", len(top))
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q / %q, benchmark has %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the benchmark", len(doc.EndToEnd), len(endToEndDefs))
	}
	maxBound := 0.0
	for i, m := range doc.EndToEnd {
		checkName(m.Name)
		d := endToEndDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v, benchmark has %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q bound %g out of contract", m.Name, m.Unit, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	if doc.EndToEnd[0].Name != "setup_s" || doc.EndToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must be listed with the largest bound")
	}
	defs := perLayerDefs()
	if len(doc.PerLayer) != len(defs) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the benchmark", len(doc.PerLayer), len(defs))
	}
	for i, m := range doc.PerLayer {
		checkName(m.Name)
		if m.Name != defs[i].name || m.Unit != defs[i].unit || m.Better != defs[i].better {
			t.Errorf("per-layer %d: %+v, benchmark has %+v", i, m, defs[i])
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer %s: bad unit %q", m.Name, m.Unit)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0.5, 3}, {0.99, 5}, {0, 1}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of an empty sample must be 0")
	}
}

// buildDaemon compiles topkcleand from this repository into the test's
// temporary directory.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "topkcleand")
	cmd := exec.Command("go", "build", "-o", bin, "github.com/probdb/topkclean/cmd/topkcleand")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build topkcleand: %v\n%s", err, out)
	}
	return bin
}

// TestTinyWorkloads runs every workload end to end at tiny size, plain and
// traced, twice with one seed: every answer must check out, every metric
// must be present, and the exact counts of the traced replay must repeat.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	bin := buildDaemon(t)
	counts := []string{"churn_requery.topkq.processed", "churn_requery.topkq.rescanned", "churn_requery.topkq.rebuilds",
		"sharded_churn.shard.scanned_per_query", "durable_clean.cleaning.candidates", "durable_clean.store.wal_bytes_per_op"}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var traced []map[string]metric
			for rep := 0; rep < 2; rep++ {
				for _, trace := range []bool{false, true} {
					cfg := config{workload: w.name, seed: 7, seconds: 1, trace: trace, tiny: true, daemon: bin, workdir: t.TempDir()}
					res, report, err := run(context.Background(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
						t.Fatalf("trace=%v: correct=%v failed=%d attempted=%d\n%s", trace, res.Correct, res.Failed, res.Attempted, strings.Join(report, "\n"))
					}
					want := len(endToEndDefs)
					if trace {
						want = len(perLayerDefs())
						traced = append(traced, res.Metrics)
					} else {
						for name, m := range res.Metrics {
							if m.Value <= 0 {
								t.Errorf("end-to-end %s = %g, want > 0", name, m.Value)
							}
						}
					}
					if len(res.Metrics) != want {
						t.Errorf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), want)
					}
				}
			}
			for _, name := range counts {
				if a, b := traced[0][name].Value, traced[1][name].Value; a != b {
					t.Errorf("%s: %g then %g with the same seed", name, a, b)
				}
			}
		})
	}
}

// TestShadowKeepsOpsValid drives long generator streams through the
// engine lane: a single invalid op would fail the replay.
func TestShadowKeepsOpsValid(t *testing.T) {
	for _, name := range []string{"churn_requery", "durable_clean"} {
		w, _ := workloadByName(name)
		if _, err := runPassA(context.Background(), w, sizing{xtuples: 60, warm: 0, cycles: 400, traced: true}, 3, t.TempDir()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
