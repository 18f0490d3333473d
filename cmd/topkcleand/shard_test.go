package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/probdb/topkclean/internal/gen"
)

// shardedServerStore is testServerStore with a default shard count: the
// default database is created (or recovered) sharded when shards > 1.
func shardedServerStore(t testing.TB, xtuples, k, shards int, storeRoot string) (*httptest.Server, *server) {
	t.Helper()
	s := newServer(serverConfig{
		k: k, threshold: 0.1, seed: 42, synthetic: xtuples,
		storeRoot: storeRoot, fsync: true, checkpointEvery: 256,
		shards: shards,
	})
	if storeRoot != "" {
		if err := s.recoverTenants(t.Logf); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.tenant(defaultDB); err != nil {
		db, err := gen.SyntheticSized(xtuples, 7)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.addTenant(defaultDB, db, tenantConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.closeStores(t.Logf)
	})
	return ts, s
}

// shardedMutate posts the same batch to both daemons and requires the
// identical status and version — the sharded router must keep the
// unsharded engine's commit semantics (prefix-on-failure included).
func shardedMutate(t *testing.T, shardedURL, plainURL string, ops []mutateOp) {
	t.Helper()
	var sresp, presp mutateResponse
	scode := postJSON(t, shardedURL+"/mutate", mutateRequest{Ops: ops}, &sresp)
	pcode := postJSON(t, plainURL+"/mutate", mutateRequest{Ops: ops}, &presp)
	if scode != pcode {
		t.Fatalf("mutate status diverged: sharded %d, unsharded %d", scode, pcode)
	}
	if sresp != presp {
		t.Fatalf("mutate response diverged:\nsharded:   %+v\nunsharded: %+v", sresp, presp)
	}
}

// TestShardedHTTPDifferential serves the same database twice — once behind
// a 4-shard merge coordinator, once unsharded — drives both through an
// identical script, and requires byte-identical response bodies at every
// step. This is the HTTP layer of the cross-shard bit-identity battery.
func TestShardedHTTPDifferential(t *testing.T) {
	sts, ssrv := shardedServerStore(t, 60, 5, 4, "")
	pts, _ := shardedServerStore(t, 60, 5, 1, "")

	compare := func(step string) {
		t.Helper()
		for _, q := range []string{"/topk", "/topk?threshold=0.4", "/quality", "/quality?k=3", "/quality?k=1"} {
			sameBytes(t, step+" "+q, sts.URL+q, pts.URL+q)
		}
	}
	compare("initial")

	// Inserts spanning the score range (top, middle, bottom), a collapse,
	// a delete, and an absent insert — every op kind the router handles.
	var before topkResponse
	getJSON(t, sts.URL+"/topk", &before)
	top := before.GlobalTopK[0].Score
	shardedMutate(t, sts.URL, pts.URL, []mutateOp{
		{Op: "insert", Name: "hi", Tuples: []tupleJSON{{ID: "hi.a", Attrs: []float64{top + 5}, Prob: 0.7}}},
		{Op: "insert", Name: "lo", Tuples: []tupleJSON{{ID: "lo.a", Attrs: []float64{-100}, Prob: 0.4}, {ID: "lo.b", Attrs: []float64{-200}, Prob: 0.5}}},
		{Op: "insert_absent", Name: "ghost"},
	})
	compare("after inserts")

	// A straddling insert: one x-tuple whose alternatives span the whole
	// score range lands whole on one shard, and the merge interleaves it.
	shardedMutate(t, sts.URL, pts.URL, []mutateOp{
		{Op: "insert", Name: "straddle", Tuples: []tupleJSON{
			{ID: "st.a", Attrs: []float64{top + 1}, Prob: 0.3},
			{ID: "st.b", Attrs: []float64{0}, Prob: 0.3},
			{ID: "st.c", Attrs: []float64{-150}, Prob: 0.3},
		}},
	})
	compare("after straddle")

	shardedMutate(t, sts.URL, pts.URL, []mutateOp{
		{Op: "delete", Group: 3},
		{Op: "collapse", Group: 7, Choice: 0},
	})
	compare("after delete+reweight")

	// Failing batches must diverge identically too: same status, same
	// applied prefix, same version.
	shardedMutate(t, sts.URL, pts.URL, []mutateOp{
		{Op: "insert_absent", Name: "prefix-ok"},
		{Op: "delete", Group: 99999},
	})
	compare("after partial batch")

	// /stats on the sharded side exposes the per-shard breakdown; the
	// totals must agree with the unsharded daemon.
	var sstats, pstats statsResponse
	getJSON(t, sts.URL+"/stats", &sstats)
	getJSON(t, pts.URL+"/stats", &pstats)
	if len(sstats.Shards) != 4 {
		t.Fatalf("sharded stats: %d shard entries, want 4", len(sstats.Shards))
	}
	if sstats.Version != pstats.Version || sstats.XTuples != pstats.XTuples ||
		sstats.Tuples != pstats.Tuples || sstats.RealTuples != pstats.RealTuples {
		t.Fatalf("sharded totals diverged:\nsharded:   %+v\nunsharded: %+v", sstats, pstats)
	}
	groups, tuples := 0, 0
	for _, st := range sstats.Shards {
		groups += st.Groups
		tuples += st.Tuples
	}
	if groups != sstats.XTuples || tuples != sstats.Tuples {
		t.Fatalf("per-shard sizes sum to %d groups / %d tuples, cluster reports %d / %d",
			groups, tuples, sstats.XTuples, sstats.Tuples)
	}

	// Budgeted cleaning is not sharded yet: /plan and /apply are refused
	// with 400 and a message that says so, and nothing commits.
	for _, path := range []string{"/plan", "/apply"} {
		var errBody map[string]any
		code := postJSON(t, sts.URL+path, planRequest{Planner: "greedy", Budget: 3}, &errBody)
		if code != http.StatusBadRequest {
			t.Fatalf("%s on sharded db: status %d, want 400", path, code)
		}
		msg, _ := errBody["error"].(string)
		if !strings.Contains(msg, "sharded") {
			t.Fatalf("%s error body does not explain the refusal: %v", path, errBody)
		}
	}
	compare("after refused cleaning")

	// /dbs reports the shard count.
	var dbs struct {
		DBs []dbInfoJSON `json:"dbs"`
	}
	getJSON(t, sts.URL+"/dbs", &dbs)
	if len(dbs.DBs) != 1 || dbs.DBs[0].Shards != 4 {
		t.Fatalf("sharded /dbs info: %+v", dbs.DBs)
	}

	// Per-tenant shard counts: a sharded database created over HTTP on the
	// unsharded daemon serves and reports its own shard count.
	var created dbInfoJSON
	if code := postJSON(t, pts.URL+"/dbs", createRequest{Name: "pershard", Synthetic: 25, Shards: 2}, &created); code != http.StatusCreated {
		t.Fatalf("create sharded tenant: %d", code)
	}
	if created.Shards != 2 {
		t.Fatalf("created tenant info: %+v", created)
	}
	var ptopk topkResponse
	getJSON(t, pts.URL+"/dbs/pershard/topk", &ptopk)
	if len(ptopk.GlobalTopK) == 0 {
		t.Fatalf("sharded tenant serves nothing: %+v", ptopk)
	}

	// deleteTenant closes the cluster cleanly (ephemeral: nothing on disk).
	if err := ssrv.deleteTenant("nope"); err == nil {
		t.Fatal("deleting a missing tenant succeeded")
	}
}

// TestShardedDurableStatsJournal: a durable -shards 2 tenant reports its
// one journal in /stats the way an unsharded durable tenant does —
// wal_records_since_checkpoint counts one record per /mutate however many
// ops it holds, and checkpoint_version moves to the closing version when
// a restart checkpoints.
func TestShardedDurableStatsJournal(t *testing.T) {
	root := t.TempDir()
	ts1, srv1 := shardedServerStore(t, 30, 5, 2, root)
	journal := func(url string) (records int, ckpt uint64, version uint64) {
		t.Helper()
		var st statsResponse
		getJSON(t, url+"/stats", &st)
		return st.WALRecords, st.CheckpointVer, st.Version
	}
	records, ckpt, v0 := journal(ts1.URL)
	if records != 0 || ckpt != v0 {
		t.Fatalf("fresh durable cluster: %d records since checkpoint v%d at v%d; want 0 since v%d", records, ckpt, v0, v0)
	}
	for i := 0; i < 3; i++ {
		if code := postJSON(t, ts1.URL+"/mutate", mutateRequest{Ops: []mutateOp{
			{Op: "insert_absent", Name: fmt.Sprintf("a%d", i)},
			{Op: "insert", Name: fmt.Sprintf("b%d", i), Tuples: []tupleJSON{{ID: fmt.Sprintf("b%d.x", i), Attrs: []float64{50}, Prob: 0.5}}},
		}}, new(mutateResponse)); code != http.StatusOK {
			t.Fatalf("mutate %d: %d", i, code)
		}
	}
	if records, ckpt, v := journal(ts1.URL); records != 3 || ckpt != v0 || v != v0+3 {
		t.Fatalf("after 3 commits: %d records since checkpoint v%d at v%d; want 3 since v%d at v%d", records, ckpt, v, v0, v0+3)
	}

	ts1.Close()
	srv1.closeStores(t.Logf)
	ts2, _ := shardedServerStore(t, 30, 5, 2, root)
	if records, ckpt, v := journal(ts2.URL); records != 0 || ckpt != v0+3 || v != v0+3 {
		t.Fatalf("after a restart: %d records since checkpoint v%d at v%d; want 0 since v%d", records, ckpt, v, v0+3)
	}
}

// TestShardedDurableRestart: a sharded database persisted under -store is
// recovered bit-identically after a restart, dispatched by tenant.json's
// shards field onto the cluster's journal.
func TestShardedDurableRestart(t *testing.T) {
	root := t.TempDir()
	ts1, srv1 := shardedServerStore(t, 40, 5, 3, root)

	var mut mutateResponse
	if code := postJSON(t, ts1.URL+"/mutate", mutateRequest{Ops: []mutateOp{
		{Op: "insert", Name: "dx", Tuples: []tupleJSON{{ID: "d1", Attrs: []float64{77}, Prob: 0.6}, {ID: "d2", Attrs: []float64{-5}, Prob: 0.3}}},
		{Op: "insert_absent", Name: "dghost"},
		{Op: "collapse", Group: 2, Choice: 0},
	}}, &mut); code != http.StatusOK {
		t.Fatalf("mutate: %d", code)
	}
	topkBefore := getBytes(t, ts1.URL+"/topk")
	qualBefore := getBytes(t, ts1.URL+"/quality")

	var stats1 statsResponse
	getJSON(t, ts1.URL+"/stats", &stats1)
	if !stats1.Durable || len(stats1.Shards) != 3 {
		t.Fatalf("pre-restart stats: durable=%v shards=%d", stats1.Durable, len(stats1.Shards))
	}

	// Restart: flush, close, recover into a fresh server.
	ts1.Close()
	srv1.closeStores(t.Logf)
	ts2, srv2 := shardedServerStore(t, 40, 5, 3, root)
	rt, err := srv2.tenant(defaultDB)
	if err != nil {
		t.Fatal(err)
	}
	if clu, ok := rt.layer.(*clusterLayer); !ok || !clu.durable() || rt.cfg.Shards != 3 {
		t.Fatalf("recovered tenant is not a durable 3-shard cluster: clu=%v durable=%v cfg=%+v", ok, rt.durable(), rt.cfg)
	}
	if got := getBytes(t, ts2.URL+"/topk"); string(got) != string(topkBefore) {
		t.Fatalf("topk diverged across restart:\nbefore: %s\nafter:  %s", topkBefore, got)
	}
	if got := getBytes(t, ts2.URL+"/quality"); string(got) != string(qualBefore) {
		t.Fatalf("quality diverged across restart:\nbefore: %s\nafter:  %s", qualBefore, got)
	}

	// The recovered cluster keeps accepting writes and stays durable.
	if code := postJSON(t, ts2.URL+"/mutate", mutateRequest{Ops: []mutateOp{
		{Op: "insert_absent", Name: "post-restart"},
	}}, &mut); code != http.StatusOK {
		t.Fatalf("post-restart mutate: %d", code)
	}
	if mut.Version != stats1.Version+1 {
		t.Fatalf("post-restart version %d, want %d", mut.Version, stats1.Version+1)
	}

	// Deleting a durable sharded tenant removes its storage for good.
	var created dbInfoJSON
	if code := postJSON(t, ts2.URL+"/dbs", createRequest{Name: "bye", Synthetic: 15, Shards: 2}, &created); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if err := srv2.deleteTenant("bye"); err != nil {
		t.Fatal(err)
	}
	ts2.Close()
	srv2.closeStores(t.Logf)
	ts3, srv3 := shardedServerStore(t, 40, 5, 3, root)
	defer ts3.Close()
	if _, err := srv3.tenant("bye"); err == nil {
		t.Fatal("deleted sharded tenant resurrected after restart")
	}
}

// TestFollowerPicksUpNewDatabases: a follower discovers databases the
// leader creates after the follower started — via an explicit rescan and
// via the background rescan loop — and skips sharded ones (their layout
// cannot be followed yet) without disturbing the rest. Each skipped name
// is logged once, not once per rescan, and a name the leader re-creates
// unsharded still attaches.
func TestFollowerPicksUpNewDatabases(t *testing.T) {
	root := t.TempDir()
	lts, _ := testServerStore(t, 30, 5, root)
	fts, fsrv := followerServer(t, root)

	// The follower only knows the default database so far.
	if got := len(fsrv.tenantList()); got != 1 {
		t.Fatalf("follower starts with %d tenants, want 1", got)
	}

	// Leader creates a database after the follower started, and commits to it.
	var created dbInfoJSON
	if code := postJSON(t, lts.URL+"/dbs", createRequest{Name: "late", Synthetic: 20}, &created); code != http.StatusCreated {
		t.Fatalf("create late db: %d", code)
	}
	var mut mutateResponse
	if code := postJSON(t, lts.URL+"/dbs/late/mutate", mutateRequest{Ops: []mutateOp{
		{Op: "insert", Name: "lx", Tuples: []tupleJSON{{ID: "l1", Attrs: []float64{33}, Prob: 0.8}}},
	}}, &mut); code != http.StatusOK {
		t.Fatalf("mutate late db: %d", code)
	}

	// A sharded database must be skipped by the rescan, not break it.
	if code := postJSON(t, lts.URL+"/dbs", createRequest{Name: "shardy", Synthetic: 15, Shards: 2}, new(dbInfoJSON)); code != http.StatusCreated {
		t.Fatalf("create sharded db: %d", code)
	}

	// The skip is reported once per name, not once per rescan tick.
	var mu sync.Mutex
	skipLines := 0
	countingLogf := func(format string, args ...any) {
		t.Logf(format, args...)
		if strings.Contains(fmt.Sprintf(format, args...), "shardy: sharded databases cannot be followed") {
			mu.Lock()
			skipLines++
			mu.Unlock()
		}
	}
	skips := func() int {
		mu.Lock()
		defer mu.Unlock()
		return skipLines
	}
	for i := 0; i < 5; i++ {
		fsrv.rescanFollowers(countingLogf)
	}
	if got := skips(); got != 1 {
		t.Fatalf("5 rescans logged the sharded skip %d times, want once", got)
	}
	if _, err := fsrv.tenant("late"); err != nil {
		t.Fatalf("rescan did not pick up the new database: %v", err)
	}
	if _, err := fsrv.tenant("shardy"); err == nil {
		t.Fatal("rescan attached a sharded database it cannot follow")
	}
	waitConverged(t, fsrv, "late", mut.Version)
	sameBytes(t, "late topk", lts.URL+"/dbs/late/topk", fts.URL+"/dbs/late/topk")
	sameBytes(t, "late quality", lts.URL+"/dbs/late/quality", fts.URL+"/dbs/late/quality")

	// A rescan is idempotent: already-followed databases are left alone.
	before := len(fsrv.tenantList())
	fsrv.rescanFollowers(t.Logf)
	if got := len(fsrv.tenantList()); got != before {
		t.Fatalf("idempotent rescan changed the tenant count: %d -> %d", before, got)
	}

	// The background loop does the same without being called by hand.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go fsrv.followerRescanLoop(ctx, 2*time.Millisecond, countingLogf)
	if code := postJSON(t, lts.URL+"/dbs", createRequest{Name: "later", Synthetic: 12}, &created); code != http.StatusCreated {
		t.Fatalf("create later db: %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := fsrv.tenant("later"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("rescan loop never picked up the new database")
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitConverged(t, fsrv, "later", 0)
	sameBytes(t, "later topk", lts.URL+"/dbs/later/topk", fts.URL+"/dbs/later/topk")

	// The skip is not sticky: tenant.json is re-read on every rescan, so
	// once the leader re-creates the name unsharded the follower attaches
	// it — and the loop never repeated the skip line meanwhile.
	cancel()
	if code := deleteReq(t, lts.URL+"/dbs/shardy"); code != http.StatusOK {
		t.Fatalf("delete sharded db: %d", code)
	}
	if code := postJSON(t, lts.URL+"/dbs", createRequest{Name: "shardy", Synthetic: 15}, new(dbInfoJSON)); code != http.StatusCreated {
		t.Fatalf("re-create shardy unsharded: %d", code)
	}
	fsrv.rescanFollowers(countingLogf)
	if _, err := fsrv.tenant("shardy"); err != nil {
		t.Fatalf("rescan did not attach shardy once unsharded: %v", err)
	}
	if got := skips(); got != 1 {
		t.Fatalf("the sharded skip was logged %d times in all, want once", got)
	}
	sameBytes(t, "shardy topk", lts.URL+"/dbs/shardy/topk", fts.URL+"/dbs/shardy/topk")
}
