package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	topkclean "github.com/probdb/topkclean"
	"github.com/probdb/topkclean/internal/replica"
	"github.com/probdb/topkclean/internal/shard"
	"github.com/probdb/topkclean/internal/store"
)

// A tenant is one named database with everything serving it: the engine
// (queries, planning), the optional persistence handle (nil = ephemeral),
// the replica handle on follower daemons, the per-tenant query coalescer,
// and the write mutex that keeps WAL order equal to commit order across
// /mutate and /apply. A sharded tenant (created with shards > 1) serves
// through clu instead of eng: the sharded cluster owns its own
// per-shard stores and merge coordinator (see DESIGN.md "Sharded
// serving").
type tenant struct {
	name       string
	eng        *topkclean.Engine
	clu        *shard.Cluster   // non-nil: sharded serving (leaders only)
	cluDurable bool             // the cluster journals its shards under -store
	sdb        *store.DB        // nil when the daemon runs without -store
	rep        *replica.Replica // non-nil on follower daemons
	cfg        tenantConfig
	coal       coalescer
	applies    atomic.Int64 // per-apply rng decorrelation counter
	writeMu    sync.Mutex   // serializes journaled writes; queries never take it
	engMu      sync.Mutex   // follower only: guards the engine rebuild below
	engGen     uint64       // replica generation the current engine was built on
	created    time.Time
}

// durable reports whether the tenant survives restarts (its own journal,
// or — on a follower — the leader's).
func (t *tenant) durable() bool { return t.sdb != nil || t.rep != nil || t.cluDurable }

// version is the tenant's current committed version, whichever layer
// serves it.
func (t *tenant) version() uint64 {
	if t.clu != nil {
		return t.clu.Version()
	}
	return t.engine().DB().Snapshot().Version()
}

// k and threshold are the tenant's query defaults.
func (t *tenant) k() int {
	if t.clu != nil {
		return t.clu.K()
	}
	return t.engine().K()
}

func (t *tenant) threshold() float64 {
	if t.clu != nil {
		return t.clu.Threshold()
	}
	return t.engine().Threshold()
}

// answersThreshold answers the three top-k semantics plus quality from
// one pinned epoch — through the merge coordinator on sharded tenants,
// the engine otherwise. Both layers produce bit-identical answers (the
// shard package's differential battery pins this), so callers never know
// which served them.
func (t *tenant) answersThreshold(ctx context.Context, threshold float64) (*topkclean.Result, error) {
	if t.clu == nil {
		return t.engine().AnswersThreshold(ctx, threshold)
	}
	r, err := t.clu.AnswersThreshold(ctx, threshold)
	if err != nil {
		return nil, err
	}
	return &topkclean.Result{
		K:          r.K,
		Threshold:  r.Threshold,
		Version:    r.Version,
		UKRanks:    r.UKRanks,
		PTK:        r.PTK,
		GlobalTopK: r.GlobalTopK,
		Quality:    r.Quality,
	}, nil
}

// qualityAtVersion evaluates the PWS-quality at an explicit k.
func (t *tenant) qualityAtVersion(ctx context.Context, k int) (float64, uint64, error) {
	if t.clu != nil {
		return t.clu.QualityAtVersion(ctx, k)
	}
	return t.engine().QualityAtVersion(ctx, k)
}

// warm runs the tenant's memoized answer pass once, so the first request
// is not the slow one.
func (t *tenant) warm(ctx context.Context) error {
	var err error
	if t.clu != nil {
		_, err = t.clu.Answers(ctx)
	} else {
		_, err = t.engine().Answers(ctx)
	}
	return err
}

// engine returns the engine to serve queries from. On a leader it is the
// tenant's engine, fixed for the tenant's lifetime. On a follower the
// replica's incremental tailing keeps the same database (and the engine's
// snapshot-keyed memoization stays warm across replicated commits), but a
// resync — the leader checkpointed past this follower — replaces the
// database wholesale; the engine is then rebuilt over the new one, keyed
// by the replica's generation. A rebuild failure keeps serving the
// previous engine (bounded staleness beats an outage) and retries on the
// next request.
func (t *tenant) engine() *topkclean.Engine {
	if t.rep == nil {
		return t.eng
	}
	t.engMu.Lock()
	defer t.engMu.Unlock()
	if gen := t.rep.Generation(); gen != t.engGen {
		eng, err := topkclean.New(t.rep.DB(),
			topkclean.WithK(t.cfg.K),
			topkclean.WithPTKThreshold(t.cfg.Threshold),
			topkclean.WithSeed(t.cfg.Seed))
		if err == nil {
			t.eng = eng
			t.engGen = gen
		}
	}
	return t.eng
}

// tenantConfig is the per-database serving configuration, persisted as
// tenant.json next to the journal so a restart recovers not just the data
// but the query shape (k, threshold) and the ranking function it was
// being served with. Rank names a function ("first" | "sum"; empty means
// "first") — it must match what the database was built with, and
// recovery verifies the persisted rank order against it.
type tenantConfig struct {
	K         int     `json:"k"`
	Threshold float64 `json:"threshold"`
	Seed      int64   `json:"seed"`
	Rank      string  `json:"rank,omitempty"`
	Shards    int     `json:"shards,omitempty"` // > 1: sharded serving
}

// rankFunc resolves the persisted ranking-function name through the
// library's shared registry (the same names the CLI's -rank flags use).
func (c tenantConfig) rankFunc() (topkclean.RankFunc, error) {
	rank, err := topkclean.RankByName(c.Rank)
	if err != nil {
		return nil, fmt.Errorf("tenant.json: %w", err)
	}
	return rank, nil
}

const tenantConfigName = "tenant.json"

// defaultDB is the database the legacy single-database routes alias to.
const defaultDB = "default"

// tenantNameRE bounds database names to path-safe tokens: they become
// directory names under -store, so no separators, no leading dot.
var tenantNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

var (
	errTenantExists  = errors.New("database already exists")
	errTenantMissing = errors.New("no such database")
	errBadName       = errors.New("database names are 1-64 chars of [A-Za-z0-9_.-], not starting with a dot")
)

// tenant looks a tenant up by name.
func (s *server) tenant(name string) (*tenant, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tenants[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", errTenantMissing, name)
	}
	return t, nil
}

// tenantList returns the tenants sorted by name.
func (s *server) tenantList() []*tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// addTenant registers a freshly built database under name, persisting it
// first when the daemon has a store root. The database must be built; cfg
// zero-values fall back to the daemon defaults. The registry lock is held
// only to reserve the name and to install the finished tenant — the disk
// work (full-database wire encode + fsyncs) runs outside it, so creating
// a large database never stalls requests against existing tenants.
func (s *server) addTenant(name string, db *topkclean.Database, cfg tenantConfig) (*tenant, error) {
	if !tenantNameRE.MatchString(name) {
		return nil, errBadName
	}
	if cfg.K <= 0 {
		cfg.K = s.cfg.k
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = s.cfg.threshold
	}
	if cfg.Seed == 0 {
		cfg.Seed = s.cfg.seed
	}
	if cfg.Shards <= 0 {
		cfg.Shards = s.cfg.shards
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	s.mu.Lock()
	if _, ok := s.tenants[name]; ok || s.creating[name] {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", errTenantExists, name)
	}
	s.creating[name] = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.creating, name)
		s.mu.Unlock()
	}()

	if cfg.Shards > 1 {
		t, err := s.addShardTenant(name, db, cfg)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.tenants[name] = t
		s.mu.Unlock()
		return t, nil
	}

	var sdb *store.DB
	if s.cfg.storeRoot != "" {
		dir := s.tenantPath(name)
		backend, err := store.OpenBackend(s.cfg.storeBackend, dir)
		if err != nil {
			return nil, err
		}
		sdb, err = store.Create(backend, db, s.storeOptions()...)
		if err != nil {
			backend.Close()
			s.dropTenantStorage(name)
			return nil, err
		}
		// tenant.json lives next to the journal; only the file backend has
		// a directory to keep it in (mem tenants die with the process, so
		// there is nothing to recover a config for).
		if s.cfg.storeBackend == "file" {
			if err := writeTenantConfig(dir, cfg); err != nil {
				sdb.Close()
				s.dropTenantStorage(name) // leave no half-created store a retry would trip over
				return nil, err
			}
		}
	}
	t, err := s.newTenant(name, db, sdb, nil, cfg)
	if err != nil {
		if sdb != nil {
			sdb.Close()
			s.dropTenantStorage(name)
		}
		return nil, err
	}
	s.mu.Lock()
	s.tenants[name] = t
	s.mu.Unlock()
	return t, nil
}

// addShardTenant places a built database's x-tuples across cfg.Shards
// shards behind a merge coordinator. With -store, the cluster journals each
// shard (plus its placement directory) under the tenant directory; the
// per-shard layout is the shard package's, not the flat single-journal
// one, so tenant.json's shards field is what recovery dispatches on.
func (s *server) addShardTenant(name string, db *topkclean.Database, cfg tenantConfig) (*tenant, error) {
	scfg := shard.Config{Shards: cfg.Shards, K: cfg.K, Threshold: cfg.Threshold, Rank: db.Rank()}
	durable := s.cfg.storeRoot != ""
	if durable {
		scfg.Backend = s.cfg.storeBackend
		scfg.Path = s.tenantPath(name)
		scfg.StoreOpts = s.storeOptions()
	}
	clu, err := shard.FromDatabase(db, scfg)
	if err != nil {
		if durable {
			s.dropShardStorage(name, cfg.Shards)
		}
		return nil, err
	}
	if durable && s.cfg.storeBackend == "file" {
		if err := writeTenantConfig(s.tenantPath(name), cfg); err != nil {
			clu.Close()
			s.dropShardStorage(name, cfg.Shards)
			return nil, err
		}
	}
	t := &tenant{name: name, clu: clu, cluDurable: durable, cfg: cfg, created: time.Now()}
	t.coal.inflight = make(map[coalKey]*coalCall)
	return t, nil
}

// dropShardStorage removes a sharded tenant's persisted state: the whole
// directory on the file backend, each shard journal plus the meta journal
// on mem.
func (s *server) dropShardStorage(name string, shards int) {
	dir := s.tenantPath(name)
	switch s.cfg.storeBackend {
	case "file":
		os.RemoveAll(dir)
	case "mem":
		for i := 0; i < shards; i++ {
			store.DropMem(filepath.Join(dir, fmt.Sprintf("shard-%d", i)))
		}
		store.DropMem(filepath.Join(dir, "meta"))
	}
}

// tenantPath is where a tenant's journal lives: a directory for the file
// backend, an opaque process-local key for mem.
func (s *server) tenantPath(name string) string {
	return filepath.Join(s.cfg.storeRoot, name)
}

// dropTenantStorage removes whatever the tenant's backend keeps at its
// path — the cleanup half of create failures and deletions.
func (s *server) dropTenantStorage(name string) {
	switch s.cfg.storeBackend {
	case "file":
		os.RemoveAll(s.tenantPath(name))
	case "mem":
		store.DropMem(s.tenantPath(name))
	}
}

// newTenant wires the engine and serving state for a database.
func (s *server) newTenant(name string, db *topkclean.Database, sdb *store.DB, rep *replica.Replica, cfg tenantConfig) (*tenant, error) {
	eng, err := topkclean.New(db,
		topkclean.WithK(cfg.K),
		topkclean.WithPTKThreshold(cfg.Threshold),
		topkclean.WithSeed(cfg.Seed))
	if err != nil {
		return nil, err
	}
	t := &tenant{name: name, eng: eng, sdb: sdb, rep: rep, cfg: cfg, created: time.Now()}
	t.coal.inflight = make(map[coalKey]*coalCall)
	return t, nil
}

// recoverTenants opens every database persisted under the store root —
// the startup path after a restart or a crash. Directories that do not
// hold a database (or fail to recover) are reported and skipped, so one
// corrupt tenant cannot take the whole daemon down.
func (s *server) recoverTenants(logf func(format string, args ...any)) error {
	entries, err := os.ReadDir(s.cfg.storeRoot)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return os.MkdirAll(s.cfg.storeRoot, 0o755)
		}
		return err
	}
	for _, e := range entries {
		if !e.IsDir() || !tenantNameRE.MatchString(e.Name()) {
			continue
		}
		name := e.Name()
		dir := filepath.Join(s.cfg.storeRoot, name)
		cfg := readTenantConfig(dir, tenantConfig{K: s.cfg.k, Threshold: s.cfg.threshold, Seed: s.cfg.seed})
		rank, err := cfg.rankFunc()
		if err != nil {
			logf("recover %s: %v (skipped)", name, err)
			continue
		}
		if cfg.Shards > 1 {
			// Sharded layout: per-shard journals plus the placement
			// directory, recovered and cross-checked by the shard package.
			clu, err := shard.Open(shard.Config{
				Shards: cfg.Shards, K: cfg.K, Threshold: cfg.Threshold, Rank: rank,
				Backend: s.cfg.storeBackend, Path: dir, StoreOpts: s.storeOptions(),
			})
			if err != nil {
				logf("recover %s: %v (skipped)", name, err)
				continue
			}
			t := &tenant{name: name, clu: clu, cluDurable: true, cfg: cfg, created: time.Now()}
			t.coal.inflight = make(map[coalKey]*coalCall)
			s.mu.Lock()
			s.tenants[name] = t
			s.mu.Unlock()
			logf("recovered %s at version %d (%d x-tuples, k=%d threshold=%g, %d shards)",
				name, clu.Version(), clu.NumGroups(), cfg.K, cfg.Threshold, cfg.Shards)
			continue
		}
		backend, err := store.OpenBackend(s.cfg.storeBackend, dir)
		if err != nil {
			logf("recover %s: %v (skipped)", name, err)
			continue
		}
		sdb, err := store.Open(backend, rank, s.storeOptions()...)
		if err != nil {
			backend.Close()
			logf("recover %s: %v (skipped)", name, err)
			continue
		}
		t, err := s.newTenant(name, sdb.DB(), sdb, nil, cfg)
		if err != nil {
			sdb.Close()
			logf("recover %s: %v (skipped)", name, err)
			continue
		}
		s.mu.Lock()
		s.tenants[name] = t
		s.mu.Unlock()
		logf("recovered %s at version %d (%d x-tuples, k=%d threshold=%g)",
			name, sdb.DB().Version(), sdb.DB().NumGroups(), cfg.K, cfg.Threshold)
	}
	return nil
}

// recoverFollowers is the follower-mode startup path: it opens every
// database under the store root read-only, syncs each replica to the
// journal tail, and starts the tailing loops. Unlike recoverTenants it
// creates nothing and repairs nothing — a follower serves exactly what the
// leader persisted, so an empty root is an error, not an invitation.
func (s *server) recoverFollowers(logf func(format string, args ...any)) error {
	entries, err := os.ReadDir(s.cfg.storeRoot)
	if err != nil {
		return fmt.Errorf("follower: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || !tenantNameRE.MatchString(e.Name()) {
			continue
		}
		s.followTenant(e.Name(), logf)
	}
	if len(s.tenantList()) == 0 {
		return fmt.Errorf("follower: %s holds no databases to follow (is it a leader's -store root?)", s.cfg.storeRoot)
	}
	return nil
}

// followTenant attaches one of the leader's databases as a read-only
// replica. Failures are logged and skipped (the directory may be a
// half-created tenant the leader is still writing; the rescan loop will
// retry it).
func (s *server) followTenant(name string, logf func(format string, args ...any)) {
	dir := filepath.Join(s.cfg.storeRoot, name)
	cfg := readTenantConfig(dir, tenantConfig{K: s.cfg.k, Threshold: s.cfg.threshold, Seed: s.cfg.seed})
	if cfg.Shards > 1 {
		logf("follow %s: sharded databases cannot be followed yet (skipped)", name)
		return
	}
	rank, err := cfg.rankFunc()
	if err != nil {
		logf("follow %s: %v (skipped)", name, err)
		return
	}
	backend, err := store.OpenBackendReadOnly(s.cfg.storeBackend, dir)
	if err != nil {
		logf("follow %s: %v (skipped)", name, err)
		return
	}
	rep, err := replica.Open(backend, rank, replica.WithPollInterval(s.cfg.replicaPoll))
	if err != nil {
		backend.Close()
		logf("follow %s: %v (skipped)", name, err)
		return
	}
	t, err := s.newTenant(name, rep.DB(), nil, rep, cfg)
	if err != nil {
		rep.Close()
		logf("follow %s: %v (skipped)", name, err)
		return
	}
	rep.Start()
	s.mu.Lock()
	if _, ok := s.tenants[name]; ok || s.draining.Load() {
		// Raced with another attach, or the daemon is shutting down: this
		// replica has no owner to close it later, so close it now.
		s.mu.Unlock()
		rep.Close()
		return
	}
	s.tenants[name] = t
	s.mu.Unlock()
	logf("following %s at version %d (%d x-tuples, k=%d threshold=%g)",
		name, rep.Version(), rep.DB().NumGroups(), cfg.K, cfg.Threshold)
}

// rescanFollowers picks up databases the leader created after this
// follower started — the dynamic half of follower mode. Directories
// already being followed are skipped; new ones attach exactly like the
// startup scan.
func (s *server) rescanFollowers(logf func(format string, args ...any)) {
	entries, err := os.ReadDir(s.cfg.storeRoot)
	if err != nil {
		logf("follower rescan: %v", err)
		return
	}
	for _, e := range entries {
		if !e.IsDir() || !tenantNameRE.MatchString(e.Name()) {
			continue
		}
		name := e.Name()
		s.mu.RLock()
		_, known := s.tenants[name]
		s.mu.RUnlock()
		if known {
			continue
		}
		s.followTenant(name, logf)
	}
}

// followerRescanLoop runs rescanFollowers on a ticker until ctx is
// cancelled (daemon shutdown).
func (s *server) followerRescanLoop(ctx context.Context, every time.Duration, logf func(format string, args ...any)) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			s.rescanFollowers(logf)
		}
	}
}

// deleteTenant unregisters a database and, when durable, deletes its
// persisted state. The default database is refused: the legacy
// single-database routes alias to it. So is a database with followers
// attached (file backend; flock-based, so best-effort and same-machine
// only): unlinking a journal a replica is tailing would strand it. The
// name stays reserved (via s.creating) until the directory removal
// finishes, so a concurrent create of the same name cannot write a fresh
// journal into a directory RemoveAll is still unlinking.
func (s *server) deleteTenant(name string) error {
	if name == defaultDB {
		return fmt.Errorf("the %q database cannot be deleted (legacy routes alias to it)", defaultDB)
	}
	// The follower probe stats and flocks journal files, so it must not
	// run under s.mu (lockscope): peek under RLock, probe unlocked. A
	// follower attaching in the gap before the write lock below loses the
	// same race it always could — the probe is best-effort by design.
	s.mu.RLock()
	peek, attached := s.tenants[name]
	s.mu.RUnlock()
	if attached && peek.sdb != nil && s.cfg.storeBackend == "file" && store.ReadersAttached(s.tenantPath(name)) {
		return fmt.Errorf("database %q has followers attached; detach them before deleting", name)
	}
	s.mu.Lock()
	t, ok := s.tenants[name]
	if ok {
		delete(s.tenants, name)
		s.creating[name] = true // reserve against concurrent re-creation
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", errTenantMissing, name)
	}
	defer func() {
		s.mu.Lock()
		delete(s.creating, name)
		s.mu.Unlock()
	}()
	if t.clu != nil {
		t.writeMu.Lock()
		defer t.writeMu.Unlock()
		_ = t.clu.Close()
		if t.cluDurable {
			s.dropShardStorage(name, t.cfg.Shards)
		}
		return nil
	}
	if t.sdb != nil {
		t.writeMu.Lock()
		defer t.writeMu.Unlock()
		// The journal is about to be unlinked, so a failed final
		// checkpoint inside Close is irrelevant — removal is the intent.
		_ = t.sdb.Close()
		if err := os.RemoveAll(filepath.Join(s.cfg.storeRoot, name)); err != nil {
			// The tenant is gone from serving but its directory survived;
			// it will resurrect on the next restart. Surface that.
			return fmt.Errorf("unregistered, but deleting its storage failed (it will be recovered on restart): %w", err)
		}
		if s.cfg.storeBackend == "mem" {
			s.dropTenantStorage(name)
		}
	}
	return nil
}

// closeStores flushes every durable tenant (final checkpoint + sync) and
// stops follower replicas — the graceful-drain counterpart of
// recoverTenants/recoverFollowers.
func (s *server) closeStores(logf func(format string, args ...any)) {
	s.draining.Store(true) // stop the follower rescan from attaching more
	for _, t := range s.tenantList() {
		if t.rep != nil {
			if err := t.rep.Close(); err != nil {
				logf("stop replica %s: %v", t.name, err)
			}
		}
		if t.clu != nil {
			t.writeMu.Lock()
			if err := t.clu.Close(); err != nil {
				logf("flush %s: %v", t.name, err)
			}
			t.writeMu.Unlock()
		}
		if t.sdb == nil {
			continue
		}
		t.writeMu.Lock()
		if err := t.sdb.Close(); err != nil {
			logf("flush %s: %v", t.name, err)
		}
		t.writeMu.Unlock()
	}
}

func (s *server) storeOptions() []store.Option {
	opts := []store.Option{store.WithCheckpointEvery(s.cfg.checkpointEvery)}
	if !s.cfg.fsync {
		opts = append(opts, store.WithNoFsync())
	}
	return opts
}

func writeTenantConfig(dir string, cfg tenantConfig) error {
	data, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, tenantConfigName), data, 0o644)
}

func readTenantConfig(dir string, fallback tenantConfig) tenantConfig {
	data, err := os.ReadFile(filepath.Join(dir, tenantConfigName))
	if err != nil {
		return fallback
	}
	cfg := fallback
	if json.Unmarshal(data, &cfg) != nil {
		return fallback
	}
	if cfg.K <= 0 {
		cfg.K = fallback.K
	}
	return cfg
}
