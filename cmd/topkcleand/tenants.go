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

// A tenant is one named database as the registry and the handlers see it:
// its name and serving configuration (persisted as tenant.json), the layer
// that answers and commits for it (chosen once, at creation or recovery;
// see layer.go), the /topk body table, and the write mutex that keeps
// journal order equal to commit order across /mutate and /apply.
type tenant struct {
	layer
	name    string
	cfg     tenantConfig
	topk    topkTable
	applies atomic.Int64 // per-apply rng decorrelation counter
	writeMu sync.Mutex   // serializes journaled writes; queries never take it
	created time.Time
}

func newTenant(name string, cfg tenantConfig, l layer) *tenant {
	return &tenant{layer: l, name: name, cfg: cfg, created: time.Now()}
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
		cfg.Shards = max(s.cfg.shards, 1)
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

	l, err := s.openLayer(name, db, cfg)
	if err != nil {
		return nil, err
	}
	// tenant.json lives next to the journal; only the file backend has a
	// directory to keep it in (mem tenants die with the process, so there
	// is nothing to recover a config for).
	if s.cfg.storeRoot != "" && s.cfg.storeBackend == "file" {
		if err := writeTenantConfig(s.tenantPath(name), cfg); err != nil {
			_ = l.drop() // leave no half-created store a retry would trip over
			return nil, err
		}
	}
	t := newTenant(name, cfg, l)
	s.mu.Lock()
	s.tenants[name] = t
	s.mu.Unlock()
	return t, nil
}

// openLayer builds a tenant's serving layer: over db when creating it, or
// — db nil — by recovering what the tenant's path holds. cfg.Shards > 1
// places the x-tuples across that many shards behind a merge coordinator,
// journaled (with -store) in the shard package's per-shard layout, which
// is why recovery dispatches on tenant.json's shards field; otherwise one
// engine serves, journaled by one store. A failed creation removes what
// it made, so a retry does not trip over it, but never a path that held
// something before — a journal another process has open, or a database
// an earlier run left — unless its own store.Create found that empty.
func (s *server) openLayer(name string, db *topkclean.Database, cfg tenantConfig) (_ layer, err error) {
	var st storage
	if s.cfg.storeRoot != "" {
		st = storage{backend: s.cfg.storeBackend, path: s.tenantPath(name)}
	}
	owned := db != nil && !st.exists()
	defer func() {
		if err != nil && owned {
			_ = st.remove()
		}
	}()
	rank, err := cfg.rankFunc()
	if err != nil {
		return nil, err
	}
	if db != nil {
		rank = db.Rank()
	}
	if cfg.Shards > 1 {
		scfg := shard.Config{Shards: cfg.Shards, K: cfg.K, Threshold: cfg.Threshold, Rank: rank}
		if st.backend != "" {
			scfg.Backend, scfg.Path, scfg.StoreOpts = st.backend, st.path, s.storeOptions()
		}
		var clu *shard.Cluster
		if db != nil {
			clu, err = shard.FromDatabase(db, scfg)
		} else {
			clu, err = shard.Open(scfg)
		}
		if err != nil {
			return nil, err
		}
		return &clusterLayer{Cluster: clu, st: st}, nil
	}
	l := &engineLayer{st: st}
	if st.backend != "" {
		backend, err := store.OpenBackend(st.backend, st.path)
		if err != nil {
			return nil, err
		}
		if db != nil {
			l.sdb, err = store.Create(backend, db, s.storeOptions()...)
		} else {
			l.sdb, err = store.Open(backend, rank, s.storeOptions()...)
		}
		if err != nil {
			backend.Close()
			return nil, err
		}
		owned = db != nil // Create found the journal empty: what it holds now is ours
		db = l.sdb.DB()
	}
	if l.eng, err = newEngine(db, cfg); err != nil {
		_ = l.close()
		return nil, err
	}
	return l, nil
}

// tenantPath is where a tenant's journal lives: a directory for the file
// backend, an opaque process-local key for mem.
func (s *server) tenantPath(name string) string {
	return filepath.Join(s.cfg.storeRoot, name)
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
		cfg := readTenantConfig(s.tenantPath(name), tenantConfig{K: s.cfg.k, Threshold: s.cfg.threshold, Seed: s.cfg.seed})
		l, err := s.openLayer(name, nil, cfg)
		if err != nil {
			logf("recover %s: %v (skipped)", name, err)
			continue
		}
		s.mu.Lock()
		s.tenants[name] = newTenant(name, cfg, l)
		s.mu.Unlock()
		info := l.info()
		logf("recovered %s at version %d (%d x-tuples, k=%d threshold=%g, shards=%d)",
			name, info.Version, info.XTuples, cfg.K, cfg.Threshold, max(cfg.Shards, 1))
	}
	return nil
}

// recoverFollowers is the follower-mode startup path: it opens every
// database under the store root read-only, syncs each replica to the
// journal tail, and starts the tailing loops. Unlike recoverTenants it
// creates nothing and repairs nothing — a follower serves exactly what the
// leader persisted, so an empty root is an error, not an invitation.
func (s *server) recoverFollowers(logf func(format string, args ...any)) error {
	if err := s.rescanFollowers(logf); err != nil {
		return fmt.Errorf("follower: %w", err)
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
	dir := s.tenantPath(name)
	cfg := readTenantConfig(dir, tenantConfig{K: s.cfg.k, Threshold: s.cfg.threshold, Seed: s.cfg.seed})
	if cfg.Shards > 1 {
		// Reported once per name, not on every rescan tick; tenant.json is
		// still re-read each time, so a name the leader re-creates
		// unsharded attaches on the next rescan.
		if _, logged := s.skipped.LoadOrStore(name, true); !logged {
			logf("follow %s: sharded databases cannot be followed yet (skipped)", name)
		}
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
	eng, err := newEngine(rep.DB(), cfg)
	if err != nil {
		rep.Close()
		logf("follow %s: %v (skipped)", name, err)
		return
	}
	t := newTenant(name, cfg, &engineLayer{eng: eng, rep: rep, cfg: cfg})
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
	s.skipped.Delete(name) // a later sharded re-creation is news again
	s.mu.Unlock()
	logf("following %s at version %d (%d x-tuples, k=%d threshold=%g)",
		name, rep.Version(), rep.DB().NumGroups(), cfg.K, cfg.Threshold)
}

// rescanFollowers attaches every database under the store root that is
// not followed yet: the startup scan, and — run on a ticker by
// followerRescanLoop — the pickup of databases the leader creates later.
func (s *server) rescanFollowers(logf func(format string, args ...any)) error {
	entries, err := os.ReadDir(s.cfg.storeRoot)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() || !tenantNameRE.MatchString(e.Name()) {
			continue
		}
		if _, err := s.tenant(e.Name()); err != nil {
			s.followTenant(e.Name(), logf)
		}
	}
	return nil
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
			if err := s.rescanFollowers(logf); err != nil {
				logf("follower rescan: %v", err)
			}
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
	if attached && peek.durable() && s.cfg.storeBackend == "file" && store.ReadersAttached(s.tenantPath(name)) {
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
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	if err := t.drop(); err != nil {
		// The tenant is gone from serving but its storage survived; it
		// will resurrect on the next restart. Surface that.
		return fmt.Errorf("unregistered, but deleting its storage failed (it will be recovered on restart): %w", err)
	}
	return nil
}

// closeStores flushes every durable tenant (final checkpoint + sync) and
// stops follower replicas — the graceful-drain counterpart of
// recoverTenants/recoverFollowers.
func (s *server) closeStores(logf func(format string, args ...any)) {
	s.draining.Store(true) // stop the follower rescan from attaching more
	for _, t := range s.tenantList() {
		t.writeMu.Lock()
		if err := t.close(); err != nil {
			logf("close %s: %v", t.name, err)
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
