package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixtureConfig builds the suite's DefaultConfig rooted at one of the
// miniature modules under testdata/src. The fixtures mirror the real
// module's layout (internal/uncertain, internal/store, cmd/topkcleand,
// ...) exactly so DefaultConfig wires them up without overrides.
func fixtureConfig(t *testing.T, name string) *Config {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := DefaultConfig(dir)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// wantRE matches one expectation comment: // want <check> "<substr>".
// Several may share a line when a statement triggers several findings.
var wantRE = regexp.MustCompile(`// want ([a-z]+) "([^"]+)"`)

type want struct {
	check, substr string
	matched       bool
}

// loadWants scans every fixture .go file for want comments, keyed by
// file:line.
func loadWants(t *testing.T, root string) map[string][]*want {
	t.Helper()
	wants := make(map[string][]*want)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				key := fmt.Sprintf("%s:%d", path, i+1)
				wants[key] = append(wants[key], &want{check: m[1], substr: m[2]})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// runFixture runs the whole suite over one fixture module and diffs the
// findings against its want comments: every seeded violation must fire,
// nothing else may, and every allow directive must carry a reason and be
// consumed. wantAllows pins how many directives the fixture seeds.
func runFixture(t *testing.T, name string, wantAllows int) {
	t.Helper()
	cfg := fixtureConfig(t, name)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wants := loadWants(t, cfg.Dir)
	for _, f := range res.Findings {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.check == f.Check && strings.Contains(f.Message, w.substr) {
				w.matched, found = true, true
				break
			}
		}
		if !found {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected %s finding matching %q never fired", key, w.check, w.substr)
			}
		}
	}
	if len(res.Allows) != wantAllows {
		t.Errorf("allows = %d, want %d", len(res.Allows), wantAllows)
	}
	for _, a := range res.Allows {
		if a.Reason == "" {
			t.Errorf("%s: allow [%s] surfaced without a reason", a.Pos, a.Check)
		}
		if !a.Used {
			t.Errorf("%s: allow [%s] (%s) was not consumed", a.Pos, a.Check, a.Reason)
		}
	}
}

// TestFixtureSuite runs the suite over the original fixture module, which
// seeds exactly one reasoned allow per suppressible shape (idxread,
// ctxdiscipline, lockscope).
func TestFixtureSuite(t *testing.T) {
	runFixture(t, "fixture", 3)
}

// TestLockCycleFixture pins the interprocedural lockorder cases: a seeded
// cross-package acquisition-order cycle (through interface dispatch, so it
// also exercises dynamic call-graph edges), a same-class re-acquisition,
// a consistently-ordered nesting as the negative, and one allowed
// re-acquisition.
func TestLockCycleFixture(t *testing.T) {
	runFixture(t, "lockcycle", 1)
}

// TestConcurrencyFixture pins the unlockpath / maporder / walltime cases:
// leaked locks on early-return and panic paths, order-sensitive effects in
// range-over-map bodies, wall-clock and global-rand reads in a
// replay-deterministic package — plus every clean idiom as negatives and
// one reasoned allow per check.
func TestConcurrencyFixture(t *testing.T) {
	runFixture(t, "concur", 3)
}

// TestCheckSubset runs only senterr over the fixture: other checks'
// findings must not appear, and — crucially — the fixture's idxread /
// ctxdiscipline / lockscope allows must NOT be reported as unused: a
// directive whose check was skipped is unjudgeable, not unused.
func TestCheckSubset(t *testing.T) {
	cfg := fixtureConfig(t, "fixture")
	cfg.Checks = []string{"senterr"}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) == 0 {
		t.Fatal("senterr-only run found nothing; the fixture seeds four identity comparisons")
	}
	for _, f := range res.Findings {
		if f.Check != "senterr" {
			t.Errorf("senterr-only run produced a %s finding: %s", f.Check, f)
		}
	}
}

// TestSubsetUnusedAllow pins the per-check unused-allow gate: the allowbad
// fixture's well-formed-but-unused directive targets senterr, so a
// senterr-only run must still report it (the check ran, the directive
// suppressed nothing), while an idxread-only run must stay silent about it
// (senterr was skipped, so the directive is unjudgeable). Malformed
// directives are reported either way — validation is not check-gated.
func TestSubsetUnusedAllow(t *testing.T) {
	cfg := fixtureConfig(t, "allowbad")
	cfg.Checks = []string{"senterr"}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	foundUnused := false
	for _, f := range res.Findings {
		if f.Check == AllowCheck && strings.Contains(f.Message, "unused lint:allow") {
			foundUnused = true
		}
	}
	if !foundUnused {
		t.Errorf("senterr-only run did not report the unused senterr directive; findings: %v", res.Findings)
	}

	cfg = fixtureConfig(t, "allowbad")
	cfg.Checks = []string{"idxread"}
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	malformed := 0
	for _, f := range res.Findings {
		if f.Check != AllowCheck {
			t.Errorf("idxread-only run produced a %s finding: %s", f.Check, f)
			continue
		}
		if strings.Contains(f.Message, "unused lint:allow") {
			t.Errorf("idxread-only run reported an unused directive for a skipped check: %s", f)
			continue
		}
		malformed++
	}
	if malformed != 2 {
		t.Errorf("idxread-only run reported %d malformed directives, want 2", malformed)
	}
}

// TestAllowDirectives runs the suite over the allowbad fixture: a
// reason-less directive and an unknown-check directive are findings that
// suppress nothing (so their seeded senterr violations also fire), and a
// well-formed directive that suppresses nothing is an unused-allow
// finding.
func TestAllowDirectives(t *testing.T) {
	cfg := fixtureConfig(t, "allowbad")
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, f := range res.Findings {
		counts[f.Check]++
	}
	if counts[AllowCheck] != 3 || counts["senterr"] != 2 || len(res.Findings) != 5 {
		t.Fatalf("findings = %v (%d total), want 3 allow + 2 senterr", counts, len(res.Findings))
	}
	for _, substr := range []string{"has no reason", "unknown check", "unused lint:allow"} {
		found := false
		for _, f := range res.Findings {
			if f.Check == AllowCheck && strings.Contains(f.Message, substr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no allow finding mentions %q in %v", substr, res.Findings)
		}
	}
	// Only the well-formed-but-unused directive survives parsing; the
	// malformed two never become Allows at all.
	if len(res.Allows) != 1 || res.Allows[0].Used {
		t.Fatalf("allows = %+v, want exactly one unused allow", res.Allows)
	}
}

// TestLintModule is the suite run CI and `go test ./...` enforce: the real
// module must lint clean. A new legitimate exception needs a
// //lint:allow with a reason; a finding without one is a regression
// against the invariants in DESIGN.md "Enforced invariants".
func TestLintModule(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow under -short")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := DefaultConfig(root)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Findings {
		t.Errorf("%s", f)
	}
}

// TestExternalTestSeesExportTest pins how an external <pkg>_test unit is
// type-checked: against <pkg> augmented with its in-package _test.go
// files (the export_test.go idiom), with every module package that
// imports <pkg> on the unit's import graph re-checked against that
// variant so a *lib.T built through them is the unit's *lib.T.
func TestExternalTestSeesExportTest(t *testing.T) {
	runFixture(t, "exttest", 0)
	mod, err := LoadModule(fixtureConfig(t, "exttest"))
	if err != nil {
		t.Fatal(err)
	}
	var units []string
	for _, p := range mod.Pkgs {
		units = append(units, p.Path)
	}
	if got := strings.Join(units, " "); !strings.Contains(got, "exttest/lib_test") {
		t.Fatalf("units %s lack exttest/lib_test", got)
	}
}
