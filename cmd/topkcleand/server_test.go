package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/probdb/topkclean/internal/gen"
)

// testServer builds an ephemeral daemon over a small synthetic workload,
// registered as the default database.
func testServer(t testing.TB, xtuples, k int) (*httptest.Server, *server) {
	return testServerStore(t, xtuples, k, "")
}

// testServerStore is testServer with a persistence root ("" = ephemeral):
// the default database is recovered from the store when present there,
// created and persisted otherwise — the daemon's startup path in miniature.
func testServerStore(t testing.TB, xtuples, k int, storeRoot string) (*httptest.Server, *server) {
	t.Helper()
	s := newServer(serverConfig{
		k: k, threshold: 0.1, seed: 42, synthetic: xtuples,
		storeRoot: storeRoot, fsync: true, checkpointEvery: 256,
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

func getJSON(t testing.TB, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("GET %s: %d %v", url, resp.StatusCode, e)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func postJSON(t testing.TB, url string, body, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("POST %s: decode: %v", url, err)
	}
	return resp.StatusCode
}

// TestApplyRejectsMalformedPlans: an explicit /apply plan naming an
// unknown x-tuple, or one whose cost overflows int, is a 400 that leaves
// the tenant untouched — not a handler panic, not a wrapped-negative cost
// slipping past the budget, and not ~2^62 futile attempts spun under the
// write mutex with sc-probability 0.
func TestApplyRejectsMalformedPlans(t *testing.T) {
	const xtuples = 60
	ts, _ := testServer(t, xtuples, 5)
	var before topkResponse
	getJSON(t, ts.URL+"/topk", &before)

	scprobs := make([]string, xtuples)
	scprobs[0] = "0"
	for i := 1; i < xtuples; i++ {
		scprobs[i] = "1"
	}
	for _, body := range []string{
		`{"budget":5,"plan":{"999999":1}}`,
		`{"budget":5,"plan":{"0":4611686018427387904},"spec":{"cost":2}}`,
		`{"budget":5,"plan":{"0":4611686018427387904},"spec":{"cost":2,"scprobs":[` + strings.Join(scprobs, ",") + `]}}`,
	} {
		resp, err := http.Post(ts.URL+"/apply", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}

	var mid topkResponse
	getJSON(t, ts.URL+"/topk", &mid)
	if mid.Version != before.Version {
		t.Fatalf("rejected applies moved the version: %d -> %d", before.Version, mid.Version)
	}
	var applied applyResponse
	if status := postJSON(t, ts.URL+"/apply", applyRequest{Budget: 5, Plan: map[string]int{"0": 1}}, &applied); status != http.StatusOK {
		t.Fatalf("valid apply after the rejections: status %d %+v", status, applied)
	}
}

// TestHTTPSmoke is the CI smoke test: start the daemon, query /topk, apply
// a mutation, re-query and observe the new version, then plan and apply a
// cleaning over HTTP.
func TestHTTPSmoke(t *testing.T) {
	ts, _ := testServer(t, 60, 5)

	var health map[string]string
	getJSON(t, ts.URL+"/healthz", &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz: %v", health)
	}

	var before topkResponse
	getJSON(t, ts.URL+"/topk", &before)
	if before.K != 5 || len(before.GlobalTopK) != 5 || before.Quality > 0 {
		t.Fatalf("topk: %+v", before)
	}
	if len(before.UKRanks) == 0 || len(before.PTK) == 0 {
		t.Fatalf("empty answers: %+v", before)
	}

	// A tight threshold must not loosen the PT-k answer.
	var tight topkResponse
	getJSON(t, ts.URL+"/topk?threshold=0.95", &tight)
	if len(tight.PTK) > len(before.PTK) {
		t.Fatalf("PTK grew under a tighter threshold: %d -> %d", len(before.PTK), len(tight.PTK))
	}

	// Mutate: insert a dominating x-tuple plus an absent one, one commit.
	top := before.GlobalTopK[0].Score
	var mut mutateResponse
	status := postJSON(t, ts.URL+"/mutate", mutateRequest{Ops: []mutateOp{
		{Op: "insert", Name: "hot", Tuples: []tupleJSON{{ID: "hot.a", Attrs: []float64{top + 10}, Prob: 0.9}}},
		{Op: "insert_absent", Name: "ghost"},
	}}, &mut)
	if status != http.StatusOK {
		t.Fatalf("mutate: status %d", status)
	}
	if mut.Version != before.Version+1 {
		t.Fatalf("mutate version: %d, want %d (one commit for the whole batch)", mut.Version, before.Version+1)
	}

	var after topkResponse
	getJSON(t, ts.URL+"/topk", &after)
	if after.Version != mut.Version {
		t.Fatalf("topk after mutate: version %d, want %d", after.Version, mut.Version)
	}
	if after.GlobalTopK[0].ID != "hot.a" {
		t.Fatalf("dominating insert not in answers: %+v", after.GlobalTopK[0])
	}

	// Plan a cleaning; certain probes, budget 4.
	var plan planResponse
	status = postJSON(t, ts.URL+"/plan", planRequest{Planner: "greedy", Budget: 4}, &plan)
	if status != http.StatusOK || plan.Version != after.Version || plan.Ops == 0 {
		t.Fatalf("plan: status %d %+v", status, plan)
	}
	if plan.ExpectedImprovement <= 0 {
		t.Fatalf("plan expected improvement: %v", plan.ExpectedImprovement)
	}

	// A stale optimistic-concurrency token is refused with 409.
	var staleOut map[string]any
	status = postJSON(t, ts.URL+"/apply", applyRequest{Planner: "greedy", Budget: 4, Version: before.Version}, &staleOut)
	if status != http.StatusConflict {
		t.Fatalf("stale apply: status %d %v", status, staleOut)
	}

	// Apply for real: certain probes mean quality must not get worse.
	var applied applyResponse
	status = postJSON(t, ts.URL+"/apply", applyRequest{Planner: "greedy", Budget: 4, Version: after.Version}, &applied)
	if status != http.StatusOK {
		t.Fatalf("apply: status %d %+v", status, applied)
	}
	if applied.Version != after.Version+1 {
		t.Fatalf("apply version: %d, want %d", applied.Version, after.Version+1)
	}
	if applied.Improvement < 0 || applied.NewQuality < applied.OldQuality {
		t.Fatalf("apply regressed quality: %+v", applied)
	}

	var final topkResponse
	getJSON(t, ts.URL+"/topk", &final)
	if final.Version != applied.Version || final.Quality != applied.NewQuality {
		t.Fatalf("final: %+v vs applied %+v", final, applied)
	}

	var stats statsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Version != final.Version || stats.XTuples == 0 {
		t.Fatalf("stats: %+v", stats)
	}
}

// TestMutateValidation: bad ops are rejected with 400 and a message.
func TestMutateValidation(t *testing.T) {
	ts, _ := testServer(t, 20, 3)
	var out map[string]any
	status := postJSON(t, ts.URL+"/mutate", mutateRequest{Ops: []mutateOp{{Op: "warp", Group: 1}}}, &out)
	if status != http.StatusBadRequest || out["error"] == "" {
		t.Fatalf("unknown op: status %d %v", status, out)
	}
	if out["ops_applied"].(float64) != 0 {
		t.Fatalf("unknown op applied something: %v", out)
	}
	status = postJSON(t, ts.URL+"/mutate", mutateRequest{}, &out)
	if status != http.StatusBadRequest {
		t.Fatalf("empty ops: status %d", status)
	}
	status = postJSON(t, ts.URL+"/mutate", mutateRequest{Ops: []mutateOp{{Op: "delete", Group: 9999}}}, &out)
	if status != http.StatusBadRequest {
		t.Fatalf("bad group: status %d", status)
	}

	// Partial commit is detectable: the first op lands (and commits), the
	// second fails — the error response reports ops_applied=1 and the
	// bumped version.
	var before statsResponse
	getJSON(t, ts.URL+"/stats", &before)
	status = postJSON(t, ts.URL+"/mutate", mutateRequest{Ops: []mutateOp{
		{Op: "insert_absent", Name: "partial-ok"},
		{Op: "delete", Group: 9999},
	}}, &out)
	if status != http.StatusBadRequest {
		t.Fatalf("partial batch: status %d", status)
	}
	if out["ops_applied"].(float64) != 1 || uint64(out["version"].(float64)) != before.Version+1 {
		t.Fatalf("partial batch not reported: %v (base version %d)", out, before.Version)
	}

	// Non-finite thresholds are rejected (a NaN key would leak in the
	// coalescer).
	resp, err := http.Get(ts.URL + "/topk?threshold=NaN")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("NaN threshold: status %d", resp.StatusCode)
	}
}

// TestCoalescer: concurrent identical requests share one computation.
func TestCoalescer(t *testing.T) {
	var c coalescer
	c.inflight = make(map[coalKey]*coalCall)
	const n = 16
	var computed int
	gate := make(chan struct{})
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err := c.do(coalKey{version: 1, threshold: 0.1}, func() ([]byte, error) {
				mu.Lock()
				computed++
				mu.Unlock()
				<-gate // hold the call open so followers pile up
				return []byte("x"), nil
			})
			if err != nil || string(body) != "x" {
				t.Errorf("do: %q %v", body, err)
			}
		}()
	}
	// Let followers enqueue, then release the leader(s).
	for c.coalesced.Load() == 0 {
	}
	close(gate)
	wg.Wait()
	if computed == n {
		t.Fatalf("no coalescing happened (%d computations for %d requests)", computed, n)
	}
	if got := c.coalesced.Load(); got == 0 {
		t.Fatal("coalesced counter stayed zero")
	}
	if len(c.inflight) != 0 {
		t.Fatalf("inflight map leaked %d entries", len(c.inflight))
	}
	// Distinct keys never coalesce.
	b1, _ := c.do(coalKey{version: 2, threshold: 0.1}, func() ([]byte, error) { return []byte("a"), nil })
	b2, _ := c.do(coalKey{version: 2, threshold: 0.2}, func() ([]byte, error) { return []byte("b"), nil })
	if string(b1) != "a" || string(b2) != "b" {
		t.Fatalf("distinct keys shared a result: %q %q", b1, b2)
	}
}

// TestServeConcurrentMutateAndQuery hammers /topk from several goroutines
// while /mutate streams batches — the HTTP-level readers-vs-writer check
// (run under -race in CI). Every response must be internally consistent
// and versions must be monotone per client.
func TestServeConcurrentMutateAndQuery(t *testing.T) {
	ts, _ := testServer(t, 80, 5)
	const readers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				var res topkResponse
				resp, err := http.Get(ts.URL + "/topk")
				if err != nil {
					errs <- err
					return
				}
				err = json.NewDecoder(resp.Body).Decode(&res)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if res.Version < last {
					errs <- fmt.Errorf("version regressed: %d after %d", res.Version, last)
					return
				}
				last = res.Version
				if len(res.GlobalTopK) != 5 || res.Quality > 0 {
					errs <- fmt.Errorf("inconsistent answer at v%d: %+v", res.Version, res)
					return
				}
			}
		}()
	}
	for i := 0; i < 25; i++ {
		var mut mutateResponse
		status := postJSON(t, ts.URL+"/mutate", mutateRequest{Ops: []mutateOp{
			{Op: "insert", Name: fmt.Sprintf("m%d", i),
				Tuples: []tupleJSON{{ID: fmt.Sprintf("m%d.a", i), Attrs: []float64{float64(i)}, Prob: 0.5}}},
		}}, &mut)
		if status != http.StatusOK {
			t.Fatalf("mutate %d: status %d", i, status)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}
