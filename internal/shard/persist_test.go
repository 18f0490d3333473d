package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/probdb/topkclean/internal/store"
	"github.com/probdb/topkclean/internal/uncertain"
)

// TestPersistReopen drives the full random mutation mix against a
// file-backed cluster, closes it cleanly, recovers with Open, and
// requires the recovered cluster to answer bit-identically to the
// never-persisted plain database — then keeps mutating and reopens
// again, so both the checkpoint path and the meta-replay path are
// crossed.
func TestPersistReopen(t *testing.T) {
	cfg := Config{Shards: 3, K: 4, Threshold: 0.25, Backend: "file", Path: t.TempDir()}
	m := newMirrorCfg(t, 42, cfg, 25)
	for i := 0; i < 80; i++ {
		m.step()
	}
	m.compare()
	checkInvariant(t, m.c)
	wantVersion := m.c.Version()
	if err := m.c.Close(); err != nil {
		t.Fatal(err)
	}

	// A mismatched shard count is refused before any replay.
	bad := cfg
	bad.Shards = 2
	if _, err := Open(bad); err == nil {
		t.Fatal("Open with the wrong shard count succeeded")
	}
	// So is opening without a backend at all.
	if _, err := Open(Config{Shards: 3, K: 4}); err == nil {
		t.Fatal("Open without a backend succeeded")
	}

	c2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.Version(); got != wantVersion {
		t.Fatalf("recovered at version %d, closed at %d", got, wantVersion)
	}
	compareAll(t, c2, m.db)
	checkInvariant(t, c2)

	// The recovered cluster keeps serving the same mutation mix
	// bit-identically: stamps, placement, and the global sequence counter
	// all survived the round trip.
	m.c = c2
	for i := 0; i < 60; i++ {
		m.step()
	}
	m.compare()
	checkInvariant(t, m.c)
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}

	c3, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareAll(t, c3, m.db)
	checkInvariant(t, c3)
	if err := c3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistRefusesOldMetaFormat feeds Open the per-shard layout that
// formats 1 and 2 wrote — a store per shard at Path/shard-i beside a
// cluster journal at Path/meta — with meta checkpoints of the range-shard
// format 1 (explicit local indices, "l"), the hash-placed format 2, none,
// and a later one. Open must refuse each with ErrMetaFormat, never as
// corruption, and write nothing at Path. A checkpoint of this layout that
// carries another format number is refused the same way.
func TestPersistRefusesOldMetaFormat(t *testing.T) {
	for name, ck := range map[string]string{
		"format-1":  `{"format":1,"shards":2,"v":1,"g":4,"sv":[1,1],"entries":[{"s":0,"l":1,"seqs":[0,1]},{"s":1,"l":1,"seqs":[2,3]}]}`,
		"format-2":  `{"format":2,"shards":2,"v":1,"g":4,"sv":[1,1],"entries":[{"s":0,"seqs":[0,1]},{"s":1,"seqs":[2,3]}]}`,
		"no-format": `{"shards":2,"v":1,"g":4,"sv":[1,1],"entries":[{"s":0,"l":1,"seqs":[0,1]},{"s":1,"l":1,"seqs":[2,3]}]}`,
		"format-3":  `{"format":3,"shards":2,"v":1,"g":4,"sv":[1,1],"entries":[{"s":0,"seqs":[0,1]},{"s":1,"seqs":[2,3]}]}`,
	} {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Shards: 2, K: 2, Threshold: 0.25, Backend: "file", Path: t.TempDir()}
			for i := 0; i < cfg.Shards; i++ {
				db := uncertain.New()
				if err := db.AddAbsentXTuple(sentinelName); err != nil {
					t.Fatal(err)
				}
				if err := db.AddXTupleSeq(fmt.Sprintf("g%d", i), []int{2 * i, 2*i + 1},
					uncertain.Tuple{ID: fmt.Sprintf("t%d.a", i), Attrs: []float64{1}, Prob: 0.5},
					uncertain.Tuple{ID: fmt.Sprintf("t%d.b", i), Attrs: []float64{2}, Prob: 0.5}); err != nil {
					t.Fatal(err)
				}
				if err := db.Build(uncertain.ByFirstAttr); err != nil {
					t.Fatal(err)
				}
				be, err := store.OpenBackend(cfg.Backend, filepath.Join(cfg.Path, fmt.Sprintf("shard-%d", i)))
				if err != nil {
					t.Fatal(err)
				}
				sdb, err := store.Create(be, db)
				if err != nil {
					t.Fatal(err)
				}
				if err := sdb.Close(); err != nil {
					t.Fatal(err)
				}
			}
			mb, err := store.OpenBackend(cfg.Backend, filepath.Join(cfg.Path, "meta"))
			if err != nil {
				t.Fatal(err)
			}
			if err := mb.WriteCheckpoint([]byte(ck), 1); err != nil {
				t.Fatal(err)
			}
			mb.Close()
			_, err = Open(cfg)
			if !errors.Is(err, ErrMetaFormat) {
				t.Fatalf("Open: got %v, want ErrMetaFormat", err)
			}
			if errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("Open reported an old format as damage: %v", err)
			}
			if _, err := os.Stat(filepath.Join(cfg.Path, "wal.log")); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("Open wrote beside the old layout: %v", err)
			}
		})
	}

	t.Run("later-format", func(t *testing.T) {
		cfg := Config{Shards: 2, K: 2, Threshold: 0.25, Backend: "file", Path: t.TempDir()}
		m := newMirrorCfg(t, 3, cfg, 6)
		if err := m.c.Close(); err != nil {
			t.Fatal(err)
		}
		be, err := store.OpenBackend(cfg.Backend, cfg.Path)
		if err != nil {
			t.Fatal(err)
		}
		if err := be.WriteCheckpoint(binary.AppendUvarint(nil, checkpointFormat+1), m.c.Version()); err != nil {
			t.Fatal(err)
		}
		be.Close()
		if _, err := Open(cfg); !errors.Is(err, ErrMetaFormat) || errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("Open: got %v, want ErrMetaFormat", err)
		}
	})
}

// crashScript is the crash sweeps' commit sequence. Each step derives its
// ops from the plain database's state before the commit, so the cluster
// and a plain copy at any version can run the rest of it identically. It
// mixes multi-alternative inserts, deletes below the tail and at it,
// reweights, collapses, absent inserts and multi-op batches.
func crashScript() []func(db *uncertain.Database) []store.Op {
	// firstReal returns the first group at or after g that holds a real
	// alternative.
	firstReal := func(db *uncertain.Database, g int) (int, int) {
		for ; ; g = (g + 1) % db.NumGroups() {
			if n := len(db.GroupAt(g).RealTuples()); n > 0 {
				return g, n
			}
		}
	}
	insert := func(name string, score float64, alts int) store.Op {
		op := store.Op{Op: "insert", Name: name}
		for a := 0; a < alts; a++ {
			op.Tuples = append(op.Tuples, store.OpTuple{
				ID: fmt.Sprintf("%s.%d", name, a), Attrs: []float64{score - float64(a)}, Prob: 0.8 / float64(alts)})
		}
		return op
	}
	reweight := func(db *uncertain.Database, g int, mass float64) store.Op {
		g, n := firstReal(db, g)
		probs := make([]float64, n)
		for i := range probs {
			probs[i] = mass / float64(n)
		}
		return store.Op{Op: "reweight", Group: g, Probs: probs}
	}
	var steps []func(db *uncertain.Database) []store.Op
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("cs%d", i)
		switch i % 8 {
		case 0: // a two-alternative insert landing mid-ranking
			steps = append(steps, func(db *uncertain.Database) []store.Op {
				return []store.Op{insert(name, db.Sorted()[db.NumTuples()/3].Score+0.5, 2)}
			})
		case 1: // reweight the top group
			steps = append(steps, func(db *uncertain.Database) []store.Op {
				return []store.Op{reweight(db, db.Sorted()[0].Group, 0.4+0.01*float64(i))}
			})
		case 2: // delete below the tail: renumbers every later group
			steps = append(steps, func(db *uncertain.Database) []store.Op {
				return []store.Op{{Op: "delete", Group: db.NumGroups() / 4}}
			})
		case 3: // absent insert
			steps = append(steps, func(*uncertain.Database) []store.Op {
				return []store.Op{{Op: "insert_absent", Name: name}}
			})
		case 4: // collapse a mid group
			steps = append(steps, func(db *uncertain.Database) []store.Op {
				return []store.Op{{Op: "collapse", Group: db.NumGroups() / 2, Choice: 0}}
			})
		case 5: // delete the tail
			steps = append(steps, func(db *uncertain.Database) []store.Op {
				return []store.Op{{Op: "delete", Group: db.NumGroups() - 1}}
			})
		case 6: // a three-alternative insert above everything
			steps = append(steps, func(db *uncertain.Database) []store.Op {
				return []store.Op{insert(name, db.Sorted()[0].Score+3, 3)}
			})
		default: // one multi-op commit: reweight, insert, delete below the tail
			steps = append(steps, func(db *uncertain.Database) []store.Op {
				return []store.Op{
					reweight(db, db.NumGroups()/3, 0.5),
					insert(name, db.Sorted()[db.NumTuples()/2].Score, 2),
					{Op: "delete", Group: db.NumGroups() / 5},
				}
			})
		}
	}
	return steps
}

// commitBoth runs one script step as one commit on the cluster and on the
// plain database.
func commitBoth(t *testing.T, c *Cluster, db *uncertain.Database, step func(*uncertain.Database) []store.Op) {
	t.Helper()
	ops := step(db)
	if err := c.Batch(func(b *Batch) error { return store.ApplyOps(b, ops) }); err != nil {
		t.Fatalf("cluster commit: %v", err)
	}
	if err := db.Batch(func(b *uncertain.Batch) error { return store.ApplyOps(b, ops) }); err != nil {
		t.Fatalf("plain commit: %v", err)
	}
}

// crashSweep holds one uninterrupted run of the crash script: the plain
// database after every commit, and the cluster at the end.
type crashSweep struct {
	cfg    Config
	steps  []func(*uncertain.Database) []store.Op
	states []*uncertain.Database // states[i]: after i commits
	final  *Cluster
}

// checkCrash reopens the cluster a crash left in dir, which must hold
// exactly the first i commits. The recovered cluster must answer
// bit-identically to the plain database at that version, then take the
// rest of the script and end with the uninterrupted cluster's directory,
// stamps, shard states and global sequence counter.
func (s *crashSweep) checkCrash(t *testing.T, what, dir string, i int) {
	t.Helper()
	cfg := s.cfg
	cfg.Path = dir
	c, err := Open(cfg)
	if err != nil {
		t.Fatalf("%s: Open refused: %v", what, err)
	}
	defer c.Close()
	db := s.states[i].Clone()
	compareAll(t, c, db)
	checkInvariant(t, c)
	for _, step := range s.steps[i:] {
		commitBoth(t, c, db, step)
	}
	compareAll(t, c, db)
	checkInvariant(t, c)
	if c.nextGseq != s.final.nextGseq {
		t.Fatalf("%s: next stamp %d after the rest of the script, uninterrupted %d", what, c.nextGseq, s.final.nextGseq)
	}
	if got, want := c.dir.view.Len(), s.final.dir.view.Len(); got != want {
		t.Fatalf("%s: %d groups placed, uninterrupted %d", what, got, want)
	}
	for gi, e := range c.dir.view.All() {
		f := s.final.dir.view.At(gi)
		if e != f || fmt.Sprint(stampsOf(c, e)) != fmt.Sprint(stampsOf(s.final, f)) {
			t.Fatalf("%s: group %d at %+v with stamps %v, uninterrupted %+v with %v",
				what, gi, e, stampsOf(c, e), f, stampsOf(s.final, f))
		}
	}
	for si, st := range c.Stats() {
		f := s.final.Stats()[si]
		if st.Version != f.Version || st.Groups != f.Groups || st.Tuples != f.Tuples {
			t.Fatalf("%s: shard %d at %+v, uninterrupted %+v", what, si, st, f)
		}
	}
}

// runCrashSweep builds a cluster journaled to a file backend in a fresh
// directory and runs the crash script, calling after(i, dir) once the
// first i commits are durable (i = 0 before the first).
func runCrashSweep(t *testing.T, shards int, opts []store.Option, after func(i int, dir string)) *crashSweep {
	t.Helper()
	s := &crashSweep{
		cfg:   Config{Shards: shards, K: 4, Threshold: 0.25, Backend: "file", Path: t.TempDir(), StoreOpts: opts},
		steps: crashScript(),
	}
	m := newMirrorCfg(t, int64(60+shards), s.cfg, 30)
	t.Cleanup(func() { m.c.Close() })
	s.states = append(s.states, m.db.Clone())
	after(0, s.cfg.Path)
	for i, step := range s.steps {
		commitBoth(t, m.c, m.db, step)
		s.states = append(s.states, m.db.Clone())
		after(i+1, s.cfg.Path)
	}
	s.final = m.c
	return s
}

// TestClusterKillAfterEveryRecord is the sharded form of the store's
// kill-after-every-WAL-record property, with checkpoints off so the whole
// history after the initial checkpoint is the log: a crash after any
// record, or inside any record, must recover the last complete commit
// bit-identically and keep mutating identically. No crash point may
// refuse.
func TestClusterKillAfterEveryRecord(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var base string
			var ends []int64 // ends[i]: log size after i+1 commits
			s := runCrashSweep(t, shards, []store.Option{store.WithCheckpointEvery(0)}, func(i int, dir string) {
				if i == 0 {
					base = copyDir(t, dir)
					return
				}
				st, err := os.Stat(filepath.Join(dir, "wal.log"))
				if err != nil {
					t.Fatal(err)
				}
				ends = append(ends, st.Size())
			})
			wal, err := os.ReadFile(filepath.Join(s.cfg.Path, "wal.log"))
			if err != nil {
				t.Fatal(err)
			}
			crashAt := func(n int64) string {
				dir := copyDir(t, base)
				if err := os.WriteFile(filepath.Join(dir, "wal.log"), wal[:n], 0o644); err != nil {
					t.Fatal(err)
				}
				return dir
			}
			s.checkCrash(t, "kill before the first record", crashAt(0), 0)
			for i, end := range ends {
				s.checkCrash(t, fmt.Sprintf("torn kill inside record %d", i+1), crashAt(end-3), i)
				s.checkCrash(t, fmt.Sprintf("kill after record %d", i+1), crashAt(end), i+1)
			}
		})
	}
}

// TestClusterKillAfterEveryCommitWithCheckpoints repeats the sweep with a
// checkpoint every four records, copying the whole journal directory
// after every commit, so crash points also land just after checkpoints
// and recovery starts from (checkpoint, log suffix) pairs.
func TestClusterKillAfterEveryCommitWithCheckpoints(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var crashes []string
			s := runCrashSweep(t, shards, []store.Option{store.WithCheckpointEvery(4)}, func(_ int, dir string) {
				crashes = append(crashes, copyDir(t, dir))
			})
			for i, dir := range crashes {
				s.checkCrash(t, fmt.Sprintf("crash after commit %d", i), dir, i)
			}
		})
	}
}

// copyDir copies a journal directory's files: what a kill at this
// instant leaves on disk, since every commit is synced before it returns.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(out, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// hookBackend is an in-memory backend that counts Sync and
// WriteCheckpoint calls and can run a hook inside Sync: a failing or a
// blocking disk. The "shard-test-hook" driver hands out one per path.
type hookBackend struct {
	*store.MemBackend
	mu          sync.Mutex
	syncs       int
	checkpoints int
	onSync      func() error
}

var hookBackends sync.Map // path -> *hookBackend

func init() {
	store.Register("shard-test-hook", store.Driver{Open: func(path string) (store.Backend, error) {
		b, _ := hookBackends.LoadOrStore(path, &hookBackend{MemBackend: store.Mem()})
		return b.(*hookBackend), nil
	}})
}

func (h *hookBackend) Sync() error {
	h.mu.Lock()
	h.syncs++
	hook := h.onSync
	h.mu.Unlock()
	if hook != nil {
		if err := hook(); err != nil {
			return err
		}
	}
	return h.MemBackend.Sync()
}

func (h *hookBackend) WriteCheckpoint(data []byte, version uint64) error {
	h.mu.Lock()
	h.checkpoints++
	h.mu.Unlock()
	return h.MemBackend.WriteCheckpoint(data, version)
}

// counts returns the Sync and WriteCheckpoint calls so far.
func (h *hookBackend) counts() (syncs, checkpoints int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.syncs, h.checkpoints
}

func (h *hookBackend) setSync(hook func() error) {
	h.mu.Lock()
	h.onSync = hook
	h.mu.Unlock()
}

// hookMirror builds a durable mirror on the hook driver.
func hookMirror(t *testing.T, shards int, opts ...store.Option) (*mirror, *hookBackend) {
	t.Helper()
	cfg := Config{Shards: shards, K: 3, Threshold: 0.25, Backend: "shard-test-hook", Path: t.Name(), StoreOpts: opts}
	t.Cleanup(func() { hookBackends.Delete(cfg.Path) })
	m := newMirrorCfg(t, 9, cfg, 20)
	b, _ := hookBackends.Load(cfg.Path)
	return m, b.(*hookBackend)
}

// sixOps is one six-op commit on both sides of a mirror.
func (m *mirror) sixOps() {
	m.t.Helper()
	names := []string{m.groupName(), m.groupName(), m.groupName()}
	tss := [][]uncertain.Tuple{m.genTuples(), m.genTuples()}
	rw := 0
	for len(m.db.GroupAt(rw).RealTuples()) == 0 {
		rw++
	}
	probs := m.genProbs(len(m.db.GroupAt(rw).RealTuples()))
	run := func(b store.Mutator) error {
		for _, err := range []error{
			b.InsertXTuple(names[0], tss[0]...),
			b.InsertXTuple(names[1], tss[1]...),
			b.InsertAbsentXTuple(names[2]),
			b.Reweight(rw, probs),
			b.Collapse(1, 0),
			b.DeleteXTuple(2),
		} {
			if err != nil {
				return err
			}
		}
		return nil
	}
	m.mustBoth(m.c.Batch(func(b *Batch) error { return run(b) }),
		m.db.Batch(func(b *uncertain.Batch) error { return run(b) }))
}

// TestClusterJournalPolicy pins the cluster's journal to the store
// options: one Sync per commit however many ops it holds, none with
// WithNoFsync, and a checkpoint every WithCheckpointEvery records.
func TestClusterJournalPolicy(t *testing.T) {
	t.Run("fsync", func(t *testing.T) {
		m, b := hookMirror(t, 4)
		before, _ := b.counts()
		m.sixOps()
		if after, _ := b.counts(); after-before != 1 {
			t.Fatalf("a six-op commit issued %d syncs, want 1", after-before)
		}
		if n, _ := m.c.SinceCheckpoint(); n != 1 {
			t.Fatalf("a six-op commit journaled %d records, want 1", n)
		}
		m.compare()
	})
	t.Run("no-fsync", func(t *testing.T) {
		m, b := hookMirror(t, 4, store.WithNoFsync())
		before, _ := b.counts()
		m.sixOps()
		if after, _ := b.counts(); after != before {
			t.Fatalf("WithNoFsync: a commit issued %d syncs", after-before)
		}
	})
	t.Run("checkpoint-every", func(t *testing.T) {
		m, b := hookMirror(t, 2, store.WithCheckpointEvery(4))
		_, created := b.counts()
		for i := 1; i <= 9; i++ {
			m.sixOps()
			records, ckptV := m.c.SinceCheckpoint()
			if _, n := b.counts(); n-created != i/4 || records != i%4 || ckptV != m.c.Version()-uint64(i%4) {
				t.Fatalf("after %d commits: %d checkpoints, %d records since v%d; want %d, %d since v%d",
					i, n-created, records, ckptV, i/4, i%4, m.c.Version()-uint64(i%4))
			}
		}
		m.compare()
	})
}

// TestClusterFailedSyncKeepsDurableEpoch: a commit whose Sync fails is
// never published. Version, answers and shard stats stay at the last
// durable version, the failing commit and every later one return
// ErrPoisoned, and Close writes no checkpoint over the journal.
func TestClusterFailedSyncKeepsDurableEpoch(t *testing.T) {
	m, b := hookMirror(t, 2)
	m.sixOps()
	m.compare()
	v, stats := m.c.Version(), m.c.Stats()

	b.setSync(func() error { return errors.New("injected sync failure") })
	name, ts := m.groupName(), m.genTuples()
	err := m.c.Batch(func(bt *Batch) error { return bt.InsertXTuple(name, ts...) })
	if !errors.Is(err, ErrPoisoned) || !errors.Is(err, store.ErrPoisoned) {
		t.Fatalf("commit with a failing Sync: err = %v, want ErrPoisoned", err)
	}
	b.setSync(nil)
	if got := m.c.Version(); got != v {
		t.Fatalf("version %d after a failed sync, want %d", got, v)
	}
	compareAll(t, m.c, m.db) // the plain side never took the insert
	for i, st := range m.c.Stats() {
		if st.Version != stats[i].Version || st.Groups != stats[i].Groups || st.Tuples != stats[i].Tuples {
			t.Fatalf("shard %d stats %+v after a failed sync, want %+v", i, st, stats[i])
		}
	}
	if err := m.c.Batch(func(bt *Batch) error { return bt.InsertAbsentXTuple(m.groupName()) }); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("commit after a failed sync: err = %v, want ErrPoisoned", err)
	}
	_, ckpts := b.counts()
	if err := m.c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, after := b.counts(); after != ckpts {
		t.Fatal("Close checkpointed a poisoned cluster")
	}
}

// TestClusterBlockedSyncHidesCommit: while a commit's Sync blocks,
// concurrent readers keep answering at the previous version; the commit
// becomes visible only once the Sync returns.
func TestClusterBlockedSyncHidesCommit(t *testing.T) {
	m, b := hookMirror(t, 4)
	v := m.c.Version()
	entered, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unblock) // a failed check must not leave the commit blocked
	b.setSync(func() error {
		close(entered)
		<-release
		return nil
	})
	name, ts := m.groupName(), m.genTuples()
	committed := make(chan error, 1)
	go func() {
		committed <- m.c.Batch(func(bt *Batch) error { return bt.InsertXTuple(name, ts...) })
	}()
	<-entered
	if got := m.c.Version(); got != v {
		t.Fatalf("version %d while the commit's sync blocks, want %d", got, v)
	}
	compareAll(t, m.c, m.db) // the plain side has not taken the insert yet
	unblock()
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	b.setSync(nil)
	if err := m.db.InsertXTuple(name, ts...); err != nil {
		t.Fatal(err)
	}
	if got := m.c.Version(); got != v+1 {
		t.Fatalf("version %d after the sync returned, want %d", got, v+1)
	}
	m.compare()
}

// stampsOf returns the stamps of the real alternatives of the group that
// e places, read from the shard database holding it.
func stampsOf(c *Cluster, e entry) []int {
	var out []int
	for _, t := range c.shards[e.shard].db.GroupAt(int(e.local)).RealTuples() {
		out = append(out, t.Stamp())
	}
	return out
}
