package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// genTestData writes a small synthetic dataset + spec into dir and returns
// their paths.
func genTestData(t *testing.T, dir string) (data, spec string) {
	t.Helper()
	data = filepath.Join(dir, "data.csv")
	spec = filepath.Join(dir, "spec.json")
	var out strings.Builder
	err := cmdGen([]string{"-kind", "synthetic", "-xtuples", "100", "-seed", "4",
		"-o", data, "-spec-o", spec}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "generated") {
		t.Fatalf("gen output: %s", out.String())
	}
	return data, spec
}

func TestCmdGenAndQuery(t *testing.T) {
	dir := t.TempDir()
	data, _ := genTestData(t, dir)
	var out strings.Builder
	if err := cmdQuery([]string{"-data", data, "-k", "5", "-threshold", "0.2"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"U-kRanks:", "PT-5", "Global-topk:", "PWS-quality: -"} {
		if !strings.Contains(s, want) {
			t.Errorf("query output missing %q:\n%s", want, s)
		}
	}
}

func TestCmdGenJSONAndMOV(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "mov.json")
	var out strings.Builder
	if err := cmdGen([]string{"-kind", "mov", "-xtuples", "60", "-o", data}, &out); err != nil {
		t.Fatal(err)
	}
	var q strings.Builder
	if err := cmdQuery([]string{"-data", data, "-k", "3", "-rank", "sum"}, &q); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.String(), "PWS-quality:") {
		t.Fatalf("query on JSON MOV data failed:\n%s", q.String())
	}
}

func TestCmdQualityAllAlgorithms(t *testing.T) {
	dir := t.TempDir()
	// Tiny dataset so PW is feasible (10 alternatives each -> cap x-tuples).
	data := filepath.Join(dir, "tiny.csv")
	var out strings.Builder
	if err := cmdGen([]string{"-kind", "synthetic", "-xtuples", "5", "-o", data}, &out); err != nil {
		t.Fatal(err)
	}
	results := map[string]string{}
	for _, algo := range []string{"tp", "pwr", "pw"} {
		var buf strings.Builder
		if err := cmdQuality([]string{"-data", data, "-k", "3", "-algo", algo}, &buf); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		results[algo] = lines[len(lines)-1][strings.LastIndex(lines[len(lines)-1], " ")+1:]
	}
	if results["tp"] != results["pwr"] || results["tp"] != results["pw"] {
		t.Fatalf("algorithms disagree: %v", results)
	}
}

func TestCmdCleanAndSimulate(t *testing.T) {
	dir := t.TempDir()
	data, spec := genTestData(t, dir)
	var clean strings.Builder
	err := cmdClean([]string{"-data", data, "-k", "5", "-budget", "40",
		"-method", "dp", "-spec", spec}, &clean)
	if err != nil {
		t.Fatal(err)
	}
	s := clean.String()
	for _, want := range []string{"quality before cleaning:", "expected improvement:", "plan (dp):"} {
		if !strings.Contains(s, want) {
			t.Errorf("clean output missing %q:\n%s", want, s)
		}
	}

	cleanedPath := filepath.Join(dir, "cleaned.csv")
	var sim strings.Builder
	err = cmdSimulate([]string{"-data", data, "-k", "5", "-budget", "40",
		"-method", "greedy", "-spec", spec, "-seed", "9", "-o", cleanedPath}, &sim)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sim.String(), "realized after:") {
		t.Fatalf("simulate output:\n%s", sim.String())
	}
	if _, err := os.Stat(cleanedPath); err != nil {
		t.Fatalf("cleaned dataset not written: %v", err)
	}
	// The cleaned dataset must load and evaluate.
	var q strings.Builder
	if err := cmdQuality([]string{"-data", cleanedPath, "-k", "5"}, &q); err != nil {
		t.Fatal(err)
	}
}

func TestCmdCleanApply(t *testing.T) {
	dir := t.TempDir()
	data, spec := genTestData(t, dir)
	cleanedPath := filepath.Join(dir, "applied.csv")
	var out strings.Builder
	err := cmdClean([]string{"-data", data, "-k", "5", "-budget", "40",
		"-method", "greedy", "-spec", spec, "-seed", "3", "-apply", "-o", cleanedPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"applied:", "database now at version", "before", "after",
		"U-kRanks:", "Global-topk:", "realized improvement"} {
		if !strings.Contains(s, want) {
			t.Errorf("apply output missing %q:\n%s", want, s)
		}
	}
	// The applied dataset must load and evaluate.
	var q strings.Builder
	if err := cmdQuality([]string{"-data", cleanedPath, "-k", "5"}, &q); err != nil {
		t.Fatal(err)
	}
}

func TestCmdGenPaperKindAndQualityDist(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "paper.csv")
	var out strings.Builder
	if err := cmdGen([]string{"-kind", "paper", "-o", data}, &out); err != nil {
		t.Fatal(err)
	}
	var q strings.Builder
	if err := cmdQuality([]string{"-data", data, "-k", "2", "-dist"}, &q); err != nil {
		t.Fatal(err)
	}
	s := q.String()
	if !strings.Contains(s, "-2.551326") {
		t.Fatalf("paper dataset quality wrong:\n%s", s)
	}
	if !strings.Contains(s, "7 possible answers") || !strings.Contains(s, "(t1,t2)@0.28") {
		t.Fatalf("distribution output wrong:\n%s", s)
	}
}

func TestCmdCleanExplain(t *testing.T) {
	dir := t.TempDir()
	data, spec := genTestData(t, dir)
	var out strings.Builder
	err := cmdClean([]string{"-data", data, "-k", "5", "-budget", "40",
		"-method", "greedy", "-spec", spec, "-explain"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "candidate x-tuples") {
		t.Fatalf("explain output missing candidates:\n%s", out.String())
	}
}

func TestCmdVerify(t *testing.T) {
	dir := t.TempDir()
	data, spec := genTestData(t, dir)
	var out strings.Builder
	err := cmdVerify([]string{"-data", data, "-k", "5", "-budget", "30",
		"-method", "dp", "-spec", spec, "-trials", "400"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"expected improvement (Theorem 2):", "simulated improvement", "absolute difference:"} {
		if !strings.Contains(s, want) {
			t.Errorf("verify output missing %q:\n%s", want, s)
		}
	}
	if err := cmdVerify([]string{}, &out); err == nil {
		t.Error("verify without -data should fail")
	}
}

func TestCmdErrors(t *testing.T) {
	var out strings.Builder
	if err := cmdQuality([]string{}, &out); err == nil {
		t.Error("quality without -data should fail")
	}
	if err := cmdQuery([]string{"-data", "/does/not/exist.csv"}, &out); err == nil {
		t.Error("missing file should fail")
	}
	if err := cmdGen([]string{"-kind", "bogus"}, &out); err == nil {
		t.Error("unknown kind should fail")
	}
	dir := t.TempDir()
	data, _ := genTestData(t, dir)
	if err := cmdQuality([]string{"-data", data, "-algo", "bogus"}, &out); err == nil {
		t.Error("unknown algorithm should fail")
	}
	if err := cmdQuery([]string{"-data", data, "-rank", "bogus"}, &out); err == nil {
		t.Error("unknown rank function should fail")
	}
	if err := cmdClean([]string{"-data", data, "-method", "bogus", "-k", "5"}, &out); err == nil {
		t.Error("unknown method should fail")
	}
}

func TestCmdReport(t *testing.T) {
	dir := t.TempDir()
	data, spec := genTestData(t, dir)
	var out strings.Builder
	if err := cmdReport([]string{"-data", data, "-k", "5", "-spec", spec}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"# Quality report:",
		"PWS-quality: -",
		"quality vs k",
		"best cleaning candidates",
		"budget vs expected quality",
		"deficit removed",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
	if err := cmdReport([]string{}, &out); err == nil {
		t.Error("report without -data should fail")
	}
}

// TestCmdReportGolden pins the whole report, byte for byte: answers,
// quality vs k, the candidate table and the greedy budget table. The
// dataset path varies per run and is replaced by a placeholder. Rewrite
// the golden file with `go test ./cmd/topkclean -run ReportGolden -update`.
func TestCmdReportGolden(t *testing.T) {
	dir := t.TempDir()
	data, spec := genTestData(t, dir)
	var out strings.Builder
	if err := cmdReport([]string{"-data", data, "-k", "5", "-spec", spec}, &out); err != nil {
		t.Fatal(err)
	}
	got := strings.ReplaceAll(out.String(), data, "DATA")
	golden := filepath.Join("testdata", "report.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("report differs from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

func TestLoadOrGenSpecFromFile(t *testing.T) {
	dir := t.TempDir()
	_, spec := genTestData(t, dir)
	got, err := loadOrGenSpec(spec, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Costs) != 100 {
		t.Fatalf("spec length %d", len(got.Costs))
	}
	if _, err := loadOrGenSpec(spec, 7, 1); err == nil {
		t.Error("spec with mismatched m should fail validation")
	}
	if _, err := loadOrGenSpec("/does/not/exist.json", 5, 1); err == nil {
		t.Error("missing spec file should fail")
	}
}

// TestCmdGenStoreAndQueryStore: `gen -store` saves a durable store and
// `query -store` recovers it with the same answers the CSV path gives.
func TestCmdGenStoreAndQueryStore(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.csv")
	storeDir := filepath.Join(dir, "store")
	var gen strings.Builder
	err := cmdGen([]string{"-kind", "synthetic", "-xtuples", "80", "-seed", "4",
		"-o", data, "-store", storeDir}, &gen)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(gen.String(), "saved durable store") {
		t.Fatalf("gen output: %s", gen.String())
	}
	var fromStore, fromCSV strings.Builder
	if err := cmdQuery([]string{"-store", storeDir, "-k", "5"}, &fromStore); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery([]string{"-data", data, "-k", "5"}, &fromCSV); err != nil {
		t.Fatal(err)
	}
	got := fromStore.String()
	if !strings.Contains(got, "recovered at version 1") {
		t.Fatalf("store query did not report recovery:\n%s", got)
	}
	// Identical answers modulo the recovery banner.
	if trimmed := got[strings.Index(got, "dataset:"):]; trimmed != fromCSV.String() {
		t.Fatalf("store answers diverge from CSV answers:\ngot  %s\nwant %s", trimmed, fromCSV.String())
	}
	// -data and -store together, or neither, are usage errors.
	if err := cmdQuery([]string{"-data", data, "-store", storeDir}, &fromCSV); err == nil {
		t.Fatal("mutually exclusive flags accepted")
	}
	if err := cmdQuery([]string{}, &fromCSV); err == nil {
		t.Fatal("missing data source accepted")
	}
}
