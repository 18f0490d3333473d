package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	topkclean "github.com/probdb/topkclean"
	"github.com/probdb/topkclean/internal/gen"
	"github.com/probdb/topkclean/internal/shard"
	"github.com/probdb/topkclean/internal/store"
)

// bodyKeys decodes a JSON object and returns its sorted top-level keys
// together with the decoded values.
func bodyKeys(t testing.TB, body []byte) ([]string, map[string]json.RawMessage) {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("%v: %s", err, body)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, m
}

// TestStatsBodiesPerTenantKind pins the /stats and /dbs bodies of every
// tenant kind — ephemeral, durable, follower, sharded, sharded durable:
// the JSON key set of each body, and the values that identify the kind
// (durable, the replication block, the per-shard list, the journal
// counters, and the /dbs shard count). Whichever layer serves a tenant,
// the wire shape it reports must stay the same.
func TestStatsBodiesPerTenantKind(t *testing.T) {
	statsBase := []string{"cached_queries", "checkpoint_version", "coalesced_queries", "dbs", "durable", "k", "name",
		"real_tuples", "role", "threshold", "tuples", "uptime_seconds", "version",
		"wal_records_since_checkpoint", "xtuples"}
	dbsBase := []string{"durable", "k", "name", "threshold", "tuples", "version", "xtuples"}
	plus := func(base []string, extra ...string) []string {
		out := append(append([]string(nil), base...), extra...)
		sort.Strings(out)
		return out
	}

	root := t.TempDir()
	ephemeral, _ := testServer(t, 30, 5)
	durable, _ := testServerStore(t, 30, 5, root)
	sharded, _ := shardedServerStore(t, 30, 5, 3, "")
	shardedDurable, _ := shardedServerStore(t, 30, 5, 2, t.TempDir())

	// One committed mutation on each leader, so the journal counters
	// have moved past their create-time values.
	for _, url := range []string{ephemeral.URL, durable.URL, sharded.URL, shardedDurable.URL} {
		if code := postJSON(t, url+"/mutate", mutateRequest{Ops: []mutateOp{{Op: "insert_absent", Name: "pin"}}}, new(mutateResponse)); code != http.StatusOK {
			t.Fatalf("mutate %s: %d", url, code)
		}
	}
	// The follower attaches after the leader's last commit: recovery syncs
	// it to the journal tail, so its version holds still while probed.
	follower, _ := followerServer(t, root)

	for _, c := range []struct {
		name        string
		url         string
		statsKeys   []string
		dbsKeys     []string
		durable     string
		shards      int    // len(/stats shards)
		dbsShards   string // /dbs "shards" value, "" when omitted
		walRecords  string
		checkpoint  string
		replication bool
	}{
		{"ephemeral", ephemeral.URL, statsBase, dbsBase, "false", 0, "", "0", "0", false},
		{"durable", durable.URL, statsBase, dbsBase, "true", 0, "", "2", "0", false},
		{"follower", follower.URL, plus(statsBase, "replication"), dbsBase, "true", 0, "", "0", "0", true},
		{"sharded", sharded.URL, plus(statsBase, "shards"), plus(dbsBase, "shards"), "false", 3, "3", "0", "0", false},
		{"sharded durable", shardedDurable.URL, plus(statsBase, "shards"), plus(dbsBase, "shards"), "true", 2, "2", "0", "0", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			keys, stats := bodyKeys(t, getBytes(t, c.url+"/stats"))
			if !reflect.DeepEqual(keys, c.statsKeys) {
				t.Fatalf("/stats keys:\n got  %v\n want %v", keys, c.statsKeys)
			}
			if got := string(stats["durable"]); got != c.durable {
				t.Fatalf("/stats durable = %s, want %s", got, c.durable)
			}
			if got := string(stats["wal_records_since_checkpoint"]); got != c.walRecords {
				t.Fatalf("/stats wal_records_since_checkpoint = %s, want %s", got, c.walRecords)
			}
			if got := string(stats["checkpoint_version"]); got != c.checkpoint {
				t.Fatalf("/stats checkpoint_version = %s, want %s", got, c.checkpoint)
			}
			if _, ok := stats["replication"]; ok != c.replication {
				t.Fatalf("/stats replication present = %v, want %v", ok, c.replication)
			}
			var shardList []json.RawMessage
			if raw, ok := stats["shards"]; ok {
				if err := json.Unmarshal(raw, &shardList); err != nil {
					t.Fatal(err)
				}
			}
			if len(shardList) != c.shards {
				t.Fatalf("/stats has %d shards, want %d", len(shardList), c.shards)
			}

			var list struct {
				DBs []json.RawMessage `json:"dbs"`
			}
			if err := json.Unmarshal(getBytes(t, c.url+"/dbs"), &list); err != nil {
				t.Fatal(err)
			}
			if len(list.DBs) != 1 {
				t.Fatalf("/dbs lists %d databases, want 1", len(list.DBs))
			}
			keys, info := bodyKeys(t, list.DBs[0])
			if !reflect.DeepEqual(keys, c.dbsKeys) {
				t.Fatalf("/dbs keys:\n got  %v\n want %v", keys, c.dbsKeys)
			}
			if got := string(info["durable"]); got != c.durable {
				t.Fatalf("/dbs durable = %s, want %s", got, c.durable)
			}
			if got := string(info["shards"]); got != c.dbsShards {
				t.Fatalf("/dbs shards = %q, want %q", got, c.dbsShards)
			}
			for _, k := range []string{"version", "xtuples", "tuples", "k", "threshold"} {
				if string(info[k]) != string(stats[k]) {
					t.Fatalf("/dbs %s = %s, /stats %s = %s", k, info[k], k, stats[k])
				}
			}
		})
	}
}

// TestMemBackendDeleteRecreate drives the mem store backend through the
// daemon: a durable tenant, unsharded or sharded, is created, deleted and
// created again under the same name. The delete must drop every
// process-local journal the tenant kept, or the re-create trips over
// them.
func TestMemBackendDeleteRecreate(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := newServer(serverConfig{
				k: 5, threshold: 0.1, seed: 42, synthetic: 20,
				storeRoot: t.TempDir(), storeBackend: "mem", checkpointEvery: 256,
			})
			ts := httptest.NewServer(s)
			t.Cleanup(func() {
				ts.Close()
				s.closeStores(t.Logf)
			})
			create := func(step string) {
				t.Helper()
				var info dbInfoJSON
				if code := postJSON(t, ts.URL+"/dbs", createRequest{Name: "x", Synthetic: 15, Shards: shards}, &info); code != http.StatusCreated {
					t.Fatalf("%s: create: %d", step, code)
				}
				if !info.Durable {
					t.Fatalf("%s: mem tenant not durable: %+v", step, info)
				}
				if code := postJSON(t, ts.URL+"/dbs/x/mutate", mutateRequest{Ops: []mutateOp{{Op: "insert_absent", Name: "m"}}}, new(mutateResponse)); code != http.StatusOK {
					t.Fatalf("%s: mutate: %d", step, code)
				}
			}
			create("first")
			if code := deleteReq(t, ts.URL+"/dbs/x"); code != http.StatusOK {
				t.Fatalf("delete: %d", code)
			}
			create("re-create")
		})
	}
}

// TestCreateOverUnrecoveredKeepsData: a persisted database that failed to
// recover (here: tenant.json names an unknown ranking function) must
// survive a create of the same name. The create is refused with
// store.ErrExists, and the journal is left as it was, so fixing the cause
// recovers the database at its version.
func TestCreateOverUnrecoveredKeepsData(t *testing.T) {
	root := t.TempDir()
	newLeader := func() *server {
		return newServer(serverConfig{k: 5, threshold: 0.1, seed: 42, storeRoot: root, fsync: true, checkpointEvery: 256})
	}
	db, err := gen.SyntheticSized(30, 7)
	if err != nil {
		t.Fatal(err)
	}
	first := newLeader()
	def, err := first.addTenant(defaultDB, db, tenantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mut, err := def.mutate([]mutateOp{{Op: "insert_absent", Name: "keep"}})
	if err != nil {
		t.Fatal(err)
	}
	first.closeStores(t.Logf)

	cfgPath := filepath.Join(root, defaultDB, tenantConfigName)
	good, err := os.ReadFile(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfgPath, []byte(`{"k":5,"threshold":0.1,"seed":42,"rank":"no-such-rank"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newLeader()
	if err := s.recoverTenants(t.Logf); err != nil {
		t.Fatal(err)
	}
	if _, err := s.addTenant(defaultDB, db, tenantConfig{}); !errors.Is(err, store.ErrExists) {
		t.Fatalf("create over an unrecovered database: %v, want store.ErrExists", err)
	}
	s.closeStores(t.Logf)

	if err := os.WriteFile(cfgPath, good, 0o644); err != nil {
		t.Fatal(err)
	}
	ts2, _ := testServerStore(t, 30, 5, root)
	var got topkResponse
	getJSON(t, ts2.URL+"/topk", &got)
	if got.Version != mut.Version {
		t.Fatalf("recovered at v%d, want v%d", got.Version, mut.Version)
	}
}

// TestCreateOverLockedKeepsData: a create whose store another writer
// holds — a second daemon started on the same -store root, say — must
// fail and leave that writer's journal where it is. The first daemon
// keeps committing, and reopening the path after it closes recovers the
// database at the version it reached.
func TestCreateOverLockedKeepsData(t *testing.T) {
	for _, backend := range []string{"file", "mem"} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", backend, shards), func(t *testing.T) {
				root := t.TempDir()
				cfg := tenantConfig{K: 5, Threshold: 0.1, Seed: 42, Shards: shards}
				newLeader := func() *server {
					return newServer(serverConfig{k: 5, threshold: 0.1, seed: 42, storeRoot: root, storeBackend: backend, checkpointEvery: 256})
				}
				st := storage{backend: backend, path: filepath.Join(root, "x")}
				t.Cleanup(func() { _ = st.remove() })
				db := func() *topkclean.Database {
					db, err := gen.SyntheticSized(30, 7)
					if err != nil {
						t.Fatal(err)
					}
					return db
				}

				first := newLeader()
				x, err := first.addTenant("x", db(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := newLeader().addTenant("x", db(), cfg); err == nil {
					t.Fatal("create over a store another writer holds succeeded")
				}
				if !st.exists() {
					t.Fatal("the failed create removed the live writer's journal")
				}
				mut, err := x.mutate([]mutateOp{{Op: "insert_absent", Name: "after"}})
				if err != nil {
					t.Fatal(err)
				}
				first.closeStores(t.Logf)

				l, err := newLeader().openLayer("x", nil, cfg)
				if err != nil {
					t.Fatalf("reopen after the failed create: %v", err)
				}
				defer l.close()
				if v := l.epoch().version; v != mut.Version {
					t.Fatalf("reopened at v%d, want v%d", v, mut.Version)
				}
			})
		}
	}
}

// TestListDBsDuringShardedCommit: GET /dbs must not wait behind a sharded
// tenant's commit. The cluster's writer lock is held for a whole batch,
// journal fsyncs included, so the listing reads only what is published.
func TestListDBsDuringShardedCommit(t *testing.T) {
	ts, s := shardedServerStore(t, 30, 5, 2, "")
	def, err := s.tenant(defaultDB)
	if err != nil {
		t.Fatal(err)
	}
	held, release, committed := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		committed <- def.layer.(*clusterLayer).Batch(func(*shard.Batch) error {
			close(held)
			<-release
			return nil
		})
	}()
	<-held
	listed := make(chan error, 1)
	var got struct{ DBs []dbInfoJSON }
	go func() {
		resp, err := http.Get(ts.URL + "/dbs")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
		}
		listed <- err
	}()
	select {
	case err := <-listed:
		if err != nil {
			t.Fatal(err)
		}
		if len(got.DBs) != 1 || got.DBs[0].Shards != 2 {
			t.Errorf("GET /dbs during a commit = %+v, want the one 2-shard database", got.DBs)
		}
	case <-time.After(10 * time.Second):
		t.Error("GET /dbs blocked behind a sharded commit")
	}
	close(release)
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
}
