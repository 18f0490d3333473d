package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/probdb/topkclean/internal/replica"
	"github.com/probdb/topkclean/internal/store"
)

// followerServer starts a follower daemon over a leader's store root —
// the in-process version of `topkcleand -follower <root>`.
func followerServer(t testing.TB, storeRoot string) (*httptest.Server, *server) {
	t.Helper()
	s := newServer(serverConfig{
		k: 5, threshold: 0.1, seed: 42,
		storeRoot: storeRoot, follower: true,
		replicaPoll: 2 * time.Millisecond,
	})
	if err := s.recoverFollowers(t.Logf); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.closeStores(t.Logf)
	})
	return ts, s
}

// waitConverged polls the follower until its replicated version reaches
// want on the named database.
func waitConverged(t testing.TB, fsrv *server, name string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ft, err := fsrv.tenant(name)
		if err != nil {
			t.Fatal(err)
		}
		rep := ft.layer.(*engineLayer).rep
		if rep.Version() >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at v%d, want v%d (err=%v)", rep.Version(), want, rep.Err())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// sameBytes asserts two endpoints answer byte-identically.
func sameBytes(t testing.TB, what, leaderURL, followerURL string) {
	t.Helper()
	lb, fb := getBytes(t, leaderURL), getBytes(t, followerURL)
	if !bytes.Equal(lb, fb) {
		t.Fatalf("%s: leader and follower differ\nleader:   %s\nfollower: %s", what, lb, fb)
	}
}

// TestFollowerServing is the leader/follower end-to-end test: a follower
// tailing the leader's store serves byte-identical answers, refuses
// writes with the role error body, reports its role and lag in /stats,
// and converges after further leader commits.
func TestFollowerServing(t *testing.T) {
	root := t.TempDir()
	lts, lsrv := testServerStore(t, 50, 5, root)

	// Commit history on the leader before the follower exists: mutations
	// and an applied cleaning (the mixed script of the acceptance bar).
	var mresp mutateResponse
	if code := postJSON(t, lts.URL+"/mutate", mutateRequest{Ops: []mutateOp{
		{Op: "insert", Name: "fx1", Tuples: []tupleJSON{{ID: "f1", Attrs: []float64{55}, Prob: 0.6}, {ID: "f2", Attrs: []float64{44}, Prob: 0.3}}},
		{Op: "insert_absent", Name: "fx2"},
	}}, &mresp); code != http.StatusOK {
		t.Fatalf("leader mutate: %d", code)
	}
	var aresp applyResponse
	if code := postJSON(t, lts.URL+"/apply", applyRequest{Planner: "greedy", Budget: 3}, &aresp); code != http.StatusOK {
		t.Fatalf("leader apply: %d", code)
	}

	fts, fsrv := followerServer(t, root)

	// healthz: role-tagged on both sides; the follower synced to the tail
	// during recovery, so it is ready immediately.
	var lhealth, fhealth map[string]any
	getJSON(t, lts.URL+"/healthz", &lhealth)
	if lhealth["role"] != "leader" {
		t.Fatalf("leader healthz: %v", lhealth)
	}
	getJSON(t, fts.URL+"/healthz", &fhealth)
	if fhealth["role"] != "follower" || fhealth["ready"] != true || fhealth["status"] != "ok" {
		t.Fatalf("follower healthz: %v", fhealth)
	}

	lt, err := lsrv.tenant(defaultDB)
	if err != nil {
		t.Fatal(err)
	}
	waitConverged(t, fsrv, defaultDB, lt.layer.(*engineLayer).eng.DB().Version())

	// The acceptance bar: byte-identical answers at the replicated version.
	sameBytes(t, "topk", lts.URL+"/topk", fts.URL+"/topk")
	sameBytes(t, "topk?threshold=0.4", lts.URL+"/topk?threshold=0.4", fts.URL+"/topk?threshold=0.4")
	sameBytes(t, "quality", lts.URL+"/quality", fts.URL+"/quality")
	sameBytes(t, "quality?k=3", lts.URL+"/quality?k=3", fts.URL+"/quality?k=3")

	// Write routes answer 403 with the role error body.
	for _, probe := range []struct {
		method, path string
		body         any
	}{
		{"POST", "/mutate", mutateRequest{Ops: []mutateOp{{Op: "insert_absent", Name: "nope"}}}},
		{"POST", "/apply", applyRequest{Planner: "greedy", Budget: 1}},
		{"POST", "/dbs/" + defaultDB + "/mutate", mutateRequest{Ops: []mutateOp{{Op: "insert_absent", Name: "nope"}}}},
		{"POST", "/dbs", createRequest{Name: "newdb"}},
	} {
		var errBody map[string]string
		code := postJSON(t, fts.URL+probe.path, probe.body, &errBody)
		if code != http.StatusForbidden {
			t.Fatalf("%s %s on follower: %d, want 403", probe.method, probe.path, code)
		}
		if errBody["role"] != "follower" || errBody["required_role"] != "leader" || errBody["error"] == "" {
			t.Fatalf("%s %s role error body: %v", probe.method, probe.path, errBody)
		}
	}
	req, err := http.NewRequest(http.MethodDelete, fts.URL+"/dbs/somedb", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var delBody map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&delBody); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden || delBody["role"] != "follower" {
		t.Fatalf("DELETE /dbs on follower: %d %v", resp.StatusCode, delBody)
	}

	// The follower's view must be unchanged by the refused writes.
	sameBytes(t, "topk after refused writes", lts.URL+"/topk", fts.URL+"/topk")

	// /stats: role and replication lag (0 once converged).
	var lstats, fstats statsResponse
	getJSON(t, lts.URL+"/stats", &lstats)
	getJSON(t, fts.URL+"/stats", &fstats)
	if lstats.Role != "leader" || lstats.Replication != nil {
		t.Fatalf("leader stats: role=%q replication=%+v", lstats.Role, lstats.Replication)
	}
	if fstats.Role != "follower" || fstats.Replication == nil {
		t.Fatalf("follower stats: role=%q replication=%+v", fstats.Role, fstats.Replication)
	}
	if !fstats.Replication.Ready || fstats.Replication.AppliedVersion != lstats.Version {
		t.Fatalf("follower replication block: %+v (leader at v%d)", fstats.Replication, lstats.Version)
	}
	if fstats.Version != lstats.Version {
		t.Fatalf("follower serves v%d, leader v%d", fstats.Version, lstats.Version)
	}

	// Mutate the leader again; the follower converges and lag returns to 0.
	if code := postJSON(t, lts.URL+"/mutate", mutateRequest{Ops: []mutateOp{
		{Op: "insert", Name: "fx3", Tuples: []tupleJSON{{ID: "f3", Attrs: []float64{77}, Prob: 0.9}}},
	}}, &mresp); code != http.StatusOK {
		t.Fatalf("leader mutate 2: %d", code)
	}
	waitConverged(t, fsrv, defaultDB, mresp.Version)
	sameBytes(t, "topk after convergence", lts.URL+"/topk", fts.URL+"/topk")
	sameBytes(t, "quality after convergence", lts.URL+"/quality", fts.URL+"/quality")
	getJSON(t, fts.URL+"/stats", &fstats)
	if fstats.Replication.BytesBehind != 0 {
		t.Fatalf("converged follower reports lag: %+v", fstats.Replication)
	}
}

// TestFollowerMultiTenant checks the follower picks up every database
// under the root, including ones created after the leader started, and
// resyncs across a leader checkpoint.
func TestFollowerMultiTenant(t *testing.T) {
	root := t.TempDir()
	lts, lsrv := testServerStore(t, 30, 5, root)

	var created dbInfoJSON
	if code := postJSON(t, lts.URL+"/dbs", createRequest{Name: "second", Synthetic: 25}, &created); code != http.StatusCreated {
		t.Fatalf("create second db: %d", code)
	}
	if code := postJSON(t, lts.URL+"/dbs/second/mutate", mutateRequest{Ops: []mutateOp{
		{Op: "insert_absent", Name: "sx"},
	}}, new(mutateResponse)); code != http.StatusOK {
		t.Fatal("mutate second db")
	}

	fts, fsrv := followerServer(t, root)
	var dbs struct {
		DBs []dbInfoJSON `json:"dbs"`
	}
	getJSON(t, fts.URL+"/dbs", &dbs)
	if len(dbs.DBs) != 2 {
		t.Fatalf("follower sees %d databases, want 2", len(dbs.DBs))
	}
	sameBytes(t, "second topk", lts.URL+"/dbs/second/topk", fts.URL+"/dbs/second/topk")

	// A leader checkpoint rotates the journal; the follower must resync
	// (generation bump) and keep answering identically.
	lt, err := lsrv.tenant("second")
	if err != nil {
		t.Fatal(err)
	}
	lsdb := lt.layer.(*engineLayer).sdb
	if err := lsdb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, lts.URL+"/dbs/second/mutate", mutateRequest{Ops: []mutateOp{
		{Op: "insert", Name: "sy", Tuples: []tupleJSON{{ID: "s1", Attrs: []float64{9}, Prob: 0.4}}},
	}}, new(mutateResponse)); code != http.StatusOK {
		t.Fatal("mutate second db after checkpoint")
	}
	waitConverged(t, fsrv, "second", lsdb.Version())
	sameBytes(t, "second topk after resync", lts.URL+"/dbs/second/topk", fts.URL+"/dbs/second/topk")
	sameBytes(t, "second stats version", lts.URL+"/dbs/second/quality", fts.URL+"/dbs/second/quality")

	// Deleting a database with a follower attached is refused on the
	// leader (the journal is being tailed).
	req, err := http.NewRequest(http.MethodDelete, lts.URL+"/dbs/second", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("leader deleted a database a follower is tailing")
	}
}

// TestTopKCacheFollowerGeneration: a follower's /topk table is tagged
// with the replica generation as well as the version, so a resync that
// swaps the database at a version number the table already holds a body
// for must not be answered with that body. A second replica, opened on
// the leader's journal before a commit and synced only after the leader
// checkpointed past it, has resynced: the follower's layer is switched
// over to it, which shows the layer what its own replica's resync would —
// a new database and a bumped generation — at the converged version.
func TestTopKCacheFollowerGeneration(t *testing.T) {
	root := t.TempDir()
	lts, lsrv := testServerStore(t, 40, 5, root)
	fts, fsrv := followerServer(t, root)
	lt, err := lsrv.tenant(defaultDB)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := fsrv.tenant(defaultDB)
	if err != nil {
		t.Fatal(err)
	}
	fl := ft.layer.(*engineLayer)

	rank, err := tenantConfig{}.rankFunc()
	if err != nil {
		t.Fatal(err)
	}
	backend, err := store.OpenBackendReadOnly("file", lsrv.tenantPath(defaultDB))
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := replica.Open(backend, rank)
	if err != nil {
		backend.Close()
		t.Fatal(err)
	}
	swapped := false
	defer func() {
		if !swapped {
			rep2.Close()
		}
	}()

	var mut mutateResponse
	if code := postJSON(t, lts.URL+"/mutate", mutateRequest{Ops: []mutateOp{
		{Op: "insert", Name: "gx", Tuples: []tupleJSON{{ID: "g1", Attrs: []float64{66}, Prob: 0.8}}},
	}}, &mut); code != http.StatusOK {
		t.Fatalf("leader mutate: %d", code)
	}
	waitConverged(t, fsrv, defaultDB, mut.Version)
	if err := lt.layer.(*engineLayer).sdb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := rep2.Poll(); err != nil {
		t.Fatal(err)
	}
	at := ft.epoch()
	if rep2.Version() != mut.Version || at.version != mut.Version || rep2.Generation() <= at.gen {
		t.Fatalf("setup: second replica at v%d gen %d, follower at %+v; want v%d and a newer generation",
			rep2.Version(), rep2.Generation(), at, mut.Version)
	}

	// Mark the follower's table entry for this epoch so a hit is visible.
	const stale = `{"stale":true}`
	if _, err := ft.topk.do(at, ft.Threshold(), func() ([]byte, epoch, error) { return []byte(stale), at, nil }); err != nil {
		t.Fatal(err)
	}
	if got := string(getBytes(t, fts.URL+"/topk")); got != stale {
		t.Fatalf("the table did not answer at its own epoch: %s", got)
	}

	fl.engMu.Lock()
	old := fl.rep
	fl.rep, swapped = rep2, true
	fl.engMu.Unlock()
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	body := getBytes(t, fts.URL+"/topk")
	if string(body) == stale {
		t.Fatalf("resynced follower served the body kept for generation %d", at.gen)
	}
	var got topkResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Version != mut.Version {
		t.Fatalf("resynced follower at v%d, want the unchanged v%d", got.Version, mut.Version)
	}
	if now := ft.epoch(); now.gen != rep2.Generation() || now.version != mut.Version {
		t.Fatalf("follower epoch %+v after the resync", now)
	}
	// The new generation's body is kept under the new generation: the
	// repeat is a table hit, and it matches the leader byte for byte.
	cached := ft.topk.cached.Load()
	sameBytes(t, "topk after resync", lts.URL+"/topk", fts.URL+"/topk")
	if ft.topk.cached.Load() != cached+1 {
		t.Fatal("the resynced generation's body was not kept")
	}
}
