// Package analysis is the repo's invariant lint suite: a zero-dependency
// static-analysis framework (stdlib go/parser + go/types only) that loads
// the whole module, type-checks it including test files, and enforces the
// discipline every runtime guarantee rests on:
//
//   - frozenwrite: published snapshot epochs share tuple memory, so
//     Database/XTuple/Tuple fields may be written only in the whitelisted
//     writer files of internal/uncertain.
//   - idxread: Tuple.home (the rank-order leaf back-pointer; idx in older
//     trees) is a writer-epoch field; no reader path may consume it.
//   - senterr: exported Err* sentinels travel wrapped; == / != against
//     them must be errors.Is.
//   - lockscope: no blocking work (fsync, WAL append, wire encode, HTTP)
//     inside a registry/tenant mu critical section in the daemon.
//   - ctxdiscipline: no context.Background() in library packages outside
//     explicitly allowlisted lines.
//   - lockorder: no cycles in the module-wide mutex acquisition-order
//     graph and no same-class re-acquisition, computed interprocedurally
//     over the call graph (callgraph.go).
//   - unlockpath: every Lock()/RLock() is released on every exit path
//     (early return, branch, panic) unless a deferred unlock covers it,
//     checked over a per-function CFG (cfg.go).
//   - maporder: no order-sensitive effects (float accumulation, append,
//     encoder/writer output) inside range-over-map bodies in the
//     byte-identity packages.
//   - walltime: no time.Now / global math/rand in the replay-deterministic
//     packages.
//
// Findings carry file:line:col positions; `//lint:allow <check> <reason>`
// is the single escape hatch (see allow.go). The suite runs as the
// topkclean-lint binary and as TestLintModule, so plain `go test ./...`
// enforces the invariants. DESIGN.md "Enforced invariants" maps each check
// to the incident that motivated it.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is one surviving lint report.
type Finding struct {
	Check   string         `json:"check"`
	Pos     token.Position `json:"pos"`
	Message string         `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Check, f.Message)
}

// Result is a suite run: the findings that survived allow filtering, plus
// every well-formed allow directive (with its mandatory reason) so callers
// can surface what was suppressed and why.
type Result struct {
	Findings []Finding `json:"findings"`
	Allows   []*Allow  `json:"allows"`
}

// Check is one named invariant checker: either per-package (run) or
// module-wide (runModule, which sees the call graph).
type Check struct {
	Name      string
	Doc       string
	run       func(*Pass)
	runModule func(*ModulePass)
}

// checks is the suite, in stable execution order.
var checks = []Check{
	{
		Name: "frozenwrite",
		Doc:  "no writes to reader-visible Database/XTuple/Tuple fields outside the writer files",
		run:  runFrozenWrite,
	},
	{
		Name: "idxread",
		Doc:  "no reads of the writer-epoch Tuple.idx/Tuple.home fields outside the writer files",
		run:  runIdxRead,
	},
	{
		Name: "senterr",
		Doc:  "==/!= against exported Err* sentinels must be errors.Is (module-wide, tests included)",
		run:  runSentErr,
	},
	{
		Name: "lockscope",
		Doc:  "no blocking calls (fsync, WAL append, wire encode, HTTP) inside a registry/tenant mu section",
		run:  runLockScope,
	},
	{
		Name: "ctxdiscipline",
		Doc:  "no context.Background/TODO in library packages (binaries, examples, tests exempt)",
		run:  runCtxDiscipline,
	},
	{
		Name:      "lockorder",
		Doc:       "no cycles in the mutex acquisition-order graph, no same-class re-acquisition (interprocedural, module-wide)",
		runModule: runLockOrder,
	},
	{
		Name: "unlockpath",
		Doc:  "every Lock/RLock released on every exit path (return, branch, panic) unless deferred",
		run:  runUnlockPath,
	},
	{
		Name: "maporder",
		Doc:  "no order-sensitive effects (float accumulation, append, writer output) in range-over-map bodies of byte-identity packages",
		run:  runMapOrder,
	},
	{
		Name: "walltime",
		Doc:  "no time.Now or global math/rand in replay-deterministic packages",
		run:  runWallTime,
	},
}

// CheckNames returns the names of every check in the suite, in execution
// order.
func CheckNames() []string {
	names := make([]string, len(checks))
	for i, c := range checks {
		names[i] = c.Name
	}
	return names
}

// CheckDocs returns a name -> one-line-doc map for -help output.
func CheckDocs() map[string]string {
	docs := make(map[string]string, len(checks))
	for _, c := range checks {
		docs[c.Name] = c.Doc
	}
	return docs
}

// KnownCheck reports whether name is a check in the suite.
func KnownCheck(name string) bool {
	for _, c := range checks {
		if c.Name == name {
			return true
		}
	}
	return false
}

// Pass is one check's view of one package: the type-checked unit, the
// configuration, and the reporting hook.
type Pass struct {
	Cfg    *Config
	Fset   *token.FileSet
	Pkg    *Package
	check  string
	report func(check string, pos token.Pos, format string, args ...any)
}

// Reportf records a finding of the running check at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(p.check, pos, format, args...)
}

// ModulePass is a module-wide check's view: every analysis unit at once,
// plus the call graph, so checks can reason across function and package
// boundaries.
type ModulePass struct {
	Cfg    *Config
	Fset   *token.FileSet
	Mod    *Module
	Graph  *CallGraph
	check  string
	report func(check string, pos token.Pos, format string, args ...any)
}

// Run loads the module described by cfg and runs the enabled checks over
// every package (test files included). The returned findings have allow
// directives already applied; Result.Allows records every directive and
// whether it was used. Loading or type-checking failures are returned as
// an error — invariants cannot be verified on code that does not compile.
func Run(cfg *Config) (*Result, error) {
	mod, err := LoadModule(cfg)
	if err != nil {
		return nil, err
	}
	known := make(map[string]bool, len(checks))
	for _, c := range checks {
		known[c.Name] = true
	}

	var raw []Finding
	var allows []*Allow
	record := func(check string, pos token.Pos, format string, args ...any) {
		raw = append(raw, Finding{
			Check:   check,
			Pos:     mod.Fset.Position(pos),
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, pkg := range mod.Pkgs {
		allows = append(allows, parseAllows(pkg, mod.Fset, known, func(pos token.Pos, format string, args ...any) {
			record(AllowCheck, pos, format, args...)
		})...)
		pass := &Pass{Cfg: cfg, Fset: mod.Fset, Pkg: pkg, report: record}
		for i := range checks {
			if checks[i].run == nil || !cfg.checkEnabled(checks[i].Name) {
				continue
			}
			pass.check = checks[i].Name
			checks[i].run(pass)
		}
	}
	// Module-wide checks see every unit at once; the call graph is built
	// only when one of them is enabled.
	var mp *ModulePass
	for i := range checks {
		if checks[i].runModule == nil || !cfg.checkEnabled(checks[i].Name) {
			continue
		}
		if mp == nil {
			mp = &ModulePass{Cfg: cfg, Fset: mod.Fset, Mod: mod, Graph: BuildCallGraph(mod), report: record}
		}
		mp.check = checks[i].Name
		checks[i].runModule(mp)
	}

	res := &Result{Allows: allows}
	for _, f := range raw {
		suppressed := false
		for _, a := range allows {
			if a.suppresses(f.Check, f.Pos) {
				a.Used = true
				suppressed = true
				// Keep scanning: several directives could target the line;
				// all that match count as used.
			}
		}
		if !suppressed {
			res.Findings = append(res.Findings, f)
		}
	}
	// An unused directive is dead weight that would silently excuse future
	// regressions at its line; flag it — but only when the directive's own
	// check actually ran. Under -checks, a directive whose check was
	// skipped is unjudgeable, not unused.
	for _, a := range allows {
		if !a.Used && cfg.checkEnabled(a.Check) {
			res.Findings = append(res.Findings, Finding{
				Check:   AllowCheck,
				Pos:     a.Pos,
				Message: fmt.Sprintf("unused lint:allow %s directive (nothing suppressed on this or the next line); delete it", a.Check),
			})
		}
	}
	sort.Slice(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i], res.Findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	// Allows in the same deterministic order, so -json output and the CI
	// allow inventory are byte-stable run to run.
	sort.Slice(res.Allows, func(i, j int) bool {
		a, b := res.Allows[i], res.Allows[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return res, nil
}
