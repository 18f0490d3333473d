package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

	// Non-finite thresholds are rejected.
	resp, err := http.Get(ts.URL + "/topk?threshold=NaN")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("NaN threshold: status %d", resp.StatusCode)
	}
}

// TestCoalescer pins the /topk body table: concurrent identical requests
// share one computation, a closed call answers later requests at the same
// epoch, errors are never kept, a newer epoch drops older bodies while an
// older arrival leaves the newer table alone, bodies are filed under the
// epoch they describe, and one epoch keeps at most topkTableCap bodies.
func TestCoalescer(t *testing.T) {
	var c topkTable
	v1 := epoch{version: 1}
	const n = 16
	var computed atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err := c.do(v1, 0.1, func() ([]byte, epoch, error) {
				computed.Add(1)
				<-gate // hold the call open so the others pile up
				return []byte("x"), v1, nil
			})
			if err != nil || string(body) != "x" {
				t.Errorf("do: %q %v", body, err)
			}
		}()
	}
	// Let waiters enqueue, then release the leader.
	for c.coalesced.Load() == 0 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if got := computed.Load(); got != 1 {
		t.Fatalf("%d computations for %d requests at one epoch and threshold", got, n)
	}
	if got := c.coalesced.Load() + c.cached.Load(); got != n-1 {
		t.Fatalf("coalesced+cached = %d, want %d", got, n-1)
	}

	// kept reports the body the table holds for a threshold, if any.
	kept := func(threshold float64) (string, bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		call, ok := c.calls[math.Float64bits(threshold)]
		if !ok {
			return "", false
		}
		return string(call.body), true
	}
	fail := func() ([]byte, epoch, error) {
		t.Helper()
		t.Fatal("computed a body the table holds")
		return nil, epoch{}, nil
	}

	// A closed call answers at once, with no computation.
	cached := c.cached.Load()
	if body, err := c.do(v1, 0.1, fail); err != nil || string(body) != "x" {
		t.Fatalf("hit: %q %v", body, err)
	}
	if c.cached.Load() != cached+1 {
		t.Fatal("a hit on a closed call was not counted as cached")
	}
	// Distinct thresholds never share a body.
	b2, _ := c.do(v1, 0.2, func() ([]byte, epoch, error) { return []byte("y"), v1, nil })
	if string(b2) != "y" {
		t.Fatalf("threshold 0.2 got %q", b2)
	}
	// -0 and 0 echo differently in a body, so they are different keys.
	zero, _ := c.do(v1, 0, func() ([]byte, epoch, error) { return []byte("0"), v1, nil })
	negZero, _ := c.do(v1, math.Copysign(0, -1), func() ([]byte, epoch, error) { return []byte("-0"), v1, nil })
	if string(zero) != "0" || string(negZero) != "-0" {
		t.Fatalf("thresholds 0 and -0 shared a body: %q %q", zero, negZero)
	}

	// Errors reach the requests that share them and are not kept.
	boom := errors.New("boom")
	if _, err := c.do(v1, 0.3, func() ([]byte, epoch, error) { return nil, v1, boom }); err != boom {
		t.Fatalf("error: %v", err)
	}
	if _, ok := kept(0.3); ok {
		t.Fatal("an error was kept")
	}
	if body, _ := c.do(v1, 0.3, func() ([]byte, epoch, error) { return []byte("z"), v1, nil }); string(body) != "z" {
		t.Fatalf("retry after an error: %q", body)
	}

	// A request at a newer epoch drops every older body.
	v2 := epoch{version: 2}
	if body, _ := c.do(v2, 0.1, func() ([]byte, epoch, error) { return []byte("x2"), v2, nil }); string(body) != "x2" {
		t.Fatalf("newer epoch served %q", body)
	}
	for _, th := range []float64{0.2, 0.3} {
		if body, ok := kept(th); ok {
			t.Fatalf("v1 body %q at threshold %v survived a v2 request", body, th)
		}
	}
	// An older arrival is answered but neither evicts nor joins the v2
	// table.
	if body, _ := c.do(v1, 0.1, func() ([]byte, epoch, error) { return []byte("old"), v1, nil }); string(body) != "old" {
		t.Fatalf("older arrival got %q", body)
	}
	if body, ok := kept(0.1); !ok || body != "x2" || c.at != v2 {
		t.Fatalf("older arrival disturbed the v2 table: %q %v at %+v", body, ok, c.at)
	}
	// A newer generation at the same version number is a newer epoch.
	g1 := epoch{gen: 1, version: 2}
	if body, _ := c.do(g1, 0.1, func() ([]byte, epoch, error) { return []byte("g1"), g1, nil }); string(body) != "g1" {
		t.Fatalf("resynced generation served %q", body)
	}

	// A body that describes a newer epoch than its request arrived at is
	// filed under the newer one, never under the arrival epoch.
	v3, v4 := epoch{gen: 1, version: 3}, epoch{gen: 1, version: 4}
	if body, _ := c.do(v3, 0.5, func() ([]byte, epoch, error) { return []byte("v4"), v4, nil }); string(body) != "v4" {
		t.Fatalf("raced request got %q", body)
	}
	if body, ok := kept(0.5); !ok || body != "v4" || c.at != v4 {
		t.Fatalf("raced body filed as %q %v at %+v, want v4 at %+v", body, ok, c.at, v4)
	}
	if body, _ := c.do(v3, 0.5, func() ([]byte, epoch, error) { return []byte("v3"), v3, nil }); string(body) != "v3" {
		t.Fatalf("a v3 arrival got %q", body)
	}

	// One epoch keeps at most topkTableCap bodies, however many
	// thresholds it is asked at; past the cap every request computes.
	v5 := epoch{gen: 1, version: 5}
	for i := 0; i < 1000; i++ {
		th := float64(i) / 1000
		body, err := c.do(v5, th, func() ([]byte, epoch, error) { return []byte(fmt.Sprint(i)), v5, nil })
		if err != nil || string(body) != fmt.Sprint(i) {
			t.Fatalf("threshold %v: %q %v", th, body, err)
		}
	}
	c.mu.Lock()
	stored, keptN := len(c.calls), c.kept
	c.mu.Unlock()
	if stored > topkTableCap || keptN != stored {
		t.Fatalf("%d bodies stored (kept=%d), cap %d", stored, keptN, topkTableCap)
	}
}

// TestTopKCacheReadYourWrites: after each /mutate acknowledgement at
// version v, the next /topk reports a version at or past v, and its bytes
// are exactly the encoding of the tenant's own answer at that version — a
// kept body is never a stale one. Repeats between commits are table hits.
func TestTopKCacheReadYourWrites(t *testing.T) {
	for _, c := range []struct {
		name   string
		shards int
	}{{"engine", 1}, {"cluster", 3}} {
		t.Run(c.name, func(t *testing.T) {
			ts, s := shardedServerStore(t, 60, 5, c.shards, "")
			def, err := s.tenant(defaultDB)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 12; i++ {
				var mut mutateResponse
				if code := postJSON(t, ts.URL+"/mutate", mutateRequest{Ops: []mutateOp{
					{Op: "insert", Name: fmt.Sprintf("ryw%d", i),
						Tuples: []tupleJSON{{ID: fmt.Sprintf("ryw%d.a", i), Attrs: []float64{float64(10 * i)}, Prob: 0.7}}},
				}}, &mut); code != http.StatusOK {
					t.Fatalf("mutate %d: %d", i, code)
				}
				for _, read := range []struct {
					q         string
					threshold float64
				}{{"", def.Threshold()}, {"?threshold=0.3", 0.3}} {
					q, threshold := read.q, read.threshold
					cached := def.topk.cached.Load()
					first := getBytes(t, ts.URL+"/topk"+q)
					again := getBytes(t, ts.URL+"/topk"+q)
					if !bytes.Equal(first, again) {
						t.Fatalf("mutate %d%s: repeated /topk differs between commits", i, q)
					}
					if def.topk.cached.Load() != cached+1 {
						t.Fatalf("mutate %d%s: the repeat was not answered from the table", i, q)
					}
					var got topkResponse
					if err := json.Unmarshal(first, &got); err != nil {
						t.Fatal(err)
					}
					if got.Version < mut.Version {
						t.Fatalf("mutate %d%s: acked v%d, /topk reports v%d", i, q, mut.Version, got.Version)
					}
					res, _, err := def.answers(context.Background(), threshold)
					if err != nil {
						t.Fatal(err)
					}
					if res.Version != got.Version {
						t.Fatalf("mutate %d%s: tenant at v%d, /topk reported v%d", i, q, res.Version, got.Version)
					}
					want, err := encodeTopK(res)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(first, want) {
						t.Fatalf("mutate %d%s: /topk bytes differ from the tenant's answer at v%d\n got  %s\n want %s", i, q, res.Version, first, want)
					}
				}
			}
		})
	}
}

// TestTopKContentLength: /topk bodies carry an explicit Content-Length
// (a synthetic body is past net/http's pre-chunk buffer), on the miss that
// computes the body and on the hit that reuses it.
func TestTopKContentLength(t *testing.T) {
	ts, _ := testServer(t, 400, 40)
	for _, what := range []string{"miss", "hit"} {
		resp, err := http.Get(ts.URL + "/topk?threshold=0.01")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(body) <= 2048 {
			t.Fatalf("%s: body of %d bytes fits the pre-chunk buffer; the test needs a larger one", what, len(body))
		}
		if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(body)) {
			t.Fatalf("%s: Content-Length %q for a %d-byte body", what, got, len(body))
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("%s: ContentLength %d, Transfer-Encoding %v", what, resp.ContentLength, resp.TransferEncoding)
		}
	}
}

// TestServeConcurrentMutateAndQuery hammers /topk from several goroutines
// while /mutate streams batches — the HTTP-level readers-vs-writer check
// (run under -race in CI). Every response must be internally consistent,
// versions must be monotone per client, and no response may be older than
// the last /mutate acknowledged before its request was sent.
func TestServeConcurrentMutateAndQuery(t *testing.T) {
	ts, _ := testServer(t, 80, 5)
	const readers = 4
	var acked atomic.Uint64 // the last version a /mutate acknowledged
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
				floor := acked.Load()
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
				if res.Version < floor {
					errs <- fmt.Errorf("read-your-writes: v%d acknowledged, /topk answered v%d", floor, res.Version)
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
		acked.Store(mut.Version)
		// The writer's own next read sees its write.
		var res topkResponse
		getJSON(t, ts.URL+"/topk", &res)
		if res.Version < mut.Version {
			t.Fatalf("read-your-writes: v%d acknowledged, /topk answered v%d", mut.Version, res.Version)
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
