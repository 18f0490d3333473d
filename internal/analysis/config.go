package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// Config tells the suite what to load and where each invariant lives.
// Every project-specific name (the snapshot-bearing package, the writer
// files, the daemon package, the blocking deny list) is data here rather
// than being hard-coded in the checks, so the fixture suites under
// testdata can exercise every rule against miniature packages.
type Config struct {
	ModulePath string // module import path (the go.mod "module" line)
	Dir        string // module root directory

	// Checks selects which checks run; empty means all. Allow-directive
	// validation always runs; an unused directive is reported only when its
	// own check is enabled (a directive whose check was skipped is
	// unjudgeable, not unused).
	Checks []string

	// frozenwrite / idxread: the snapshot-bearing package and its types.
	UncertainPkg string   // import path holding Database/XTuple/Tuple
	FrozenTypes  []string // type names whose fields snapshots share
	WriterFiles  []string // base names (within UncertainPkg) allowed to write them
	IdxFields    []string // the writer-epoch rank-position fields ("idx", "home")
	IdxFiles     []string // base names (within UncertainPkg) allowed to read them

	// lockscope: packages whose registry/tenant mutexes must stay free of
	// blocking work, the field names of those mutexes, and what counts as
	// blocking.
	LockPkgs      []string // import paths the check runs on
	LockNames     []string // mutex field/variable names forming checked sections
	BlockingPkgs  []string // any call into these packages blocks
	BlockingFuncs []string // extra fully-qualified blocking functions/methods

	// maporder: the byte-identity packages, where anything emitted,
	// appended, or accumulated in map-iteration order can break the
	// leader/follower/recovery byte-equality contract.
	MapOrderPkgs []string

	// walltime: the replay-deterministic packages, which may read neither
	// the wall clock nor the OS-seeded global math/rand source.
	WallTimePkgs []string

	// ctxdiscipline: import-path prefixes (binaries, examples) where
	// context.Background is legitimate.
	CtxExempt []string
}

// DefaultConfig returns the suite configuration for this repository: the
// module rooted at dir, with the invariants wired to the packages that
// carry them (see DESIGN.md "Enforced invariants" for the map from check
// to incident).
func DefaultConfig(dir string) (*Config, error) {
	modPath, err := modulePath(dir)
	if err != nil {
		return nil, err
	}
	uncertain := modPath + "/internal/uncertain"
	return &Config{
		ModulePath:   modPath,
		Dir:          dir,
		UncertainPkg: uncertain,
		FrozenTypes:  []string{"Database", "XTuple", "Tuple"},
		// The writer epoch: the files that construct, mutate, and publish
		// databases (chunks.go carries the chunked rank structure's splice
		// passes; seq.go the explicit tie-break staging entry points the
		// shard router stamps through). Everything else — including
		// uncertain's own reader files and tests — must treat published
		// tuples as frozen.
		WriterFiles: []string{"database.go", "mutate.go", "batch.go", "snapshot.go", "wire.go", "wirev1.go", "chunks.go", "seq.go"},
		IdxFields:   []string{"idx", "home"},
		// Tuple.idx and Tuple.home are writer-epoch fields (PR 4, chunked
		// in PR 9): splice passes repair the chunk back-pointers in place
		// on tuples shared with snapshots, so only the writer paths (and
		// the documented Index accessor) may consume them.
		IdxFiles: []string{"database.go", "mutate.go", "batch.go", "snapshot.go", "wire.go", "chunks.go", "tuple.go"},
		LockPkgs: []string{modPath + "/cmd/topkcleand"},
		// The registry lock (server.mu) and the coalescer lock are both
		// named "mu"; the per-tenant writeMu intentionally covers journal
		// appends (WAL order == commit order) and is exempt by name.
		LockNames:    []string{"mu"},
		BlockingPkgs: []string{modPath + "/internal/store", "net/http"},
		BlockingFuncs: []string{
			"(*os.File).Sync",
			"(*os.File).Write",
			"os.WriteFile",
			"os.ReadFile",
			"os.ReadDir",
			"os.MkdirAll",
			"os.Remove",
			"os.RemoveAll",
			"os.Rename",
			"os.Create",
			"os.Open",
			"os.OpenFile",
			uncertain + ".EncodeWire",
			uncertain + ".AppendWire",
			uncertain + ".DecodeWire",
		},
		// Everything whose output lands in wire bytes, journal records, or
		// HTTP responses that replicas digest-compare.
		MapOrderPkgs: []string{
			uncertain,
			modPath + "/internal/cowvec",
			modPath + "/internal/memo",
			modPath + "/internal/topkq",
			modPath + "/internal/quality",
			modPath + "/internal/cleaning",
			modPath + "/internal/store",
			modPath + "/internal/replica",
			modPath + "/internal/shard",
			modPath + "/cmd/topkcleand",
		},
		// The replay path: wire codec, store recovery/journal, query
		// evaluation, follower tailing. Timestamps are stamped in the
		// daemon layer and passed in.
		WallTimePkgs: []string{
			uncertain,
			modPath + "/internal/cowvec",
			modPath + "/internal/memo",
			modPath + "/internal/topkq",
			modPath + "/internal/store",
			modPath + "/internal/replica",
			modPath + "/internal/shard",
		},
		CtxExempt: []string{modPath + "/cmd/", modPath + "/examples/"},
	}, nil
}

var moduleRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// modulePath reads the module path from dir's go.mod.
func modulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	m := moduleRE.FindSubmatch(data)
	if m == nil {
		return "", fmt.Errorf("%s: no module line in go.mod", dir)
	}
	return string(m[1]), nil
}

// FindModuleRoot walks upward from dir to the nearest directory holding a
// go.mod — how the lint binary locates the module from wherever it runs.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func (c *Config) checkEnabled(name string) bool {
	if len(c.Checks) == 0 {
		return true
	}
	for _, n := range c.Checks {
		if n == name {
			return true
		}
	}
	return false
}

// inStrings reports whether s is in list.
func inStrings(s string, list []string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
