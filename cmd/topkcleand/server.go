package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	topkclean "github.com/probdb/topkclean"
	"github.com/probdb/topkclean/internal/shard"
	"github.com/probdb/topkclean/internal/store"
	"github.com/probdb/topkclean/internal/uncertain"
)

// server is the HTTP serving layer over a registry of named databases
// (tenants), each with its own engine and — when the daemon runs with
// -store — its own journal. Queries read through pinned snapshot epochs
// and run lock-free and fully concurrently with the mutation endpoints,
// which serialize per tenant (so the WAL order always equals the commit
// order) and publish one epoch per request. The legacy single-database
// routes (/topk, /mutate, ...) alias to the "default" database. See
// SERVING.md for the API reference and the consistency guarantees, and
// PERSISTENCE.md for the durability contract.
type server struct {
	cfg      serverConfig
	mu       sync.RWMutex
	tenants  map[string]*tenant
	creating map[string]bool // names reserved by in-flight creations
	skipped  sync.Map        // follower: sharded names already reported as skipped
	draining atomic.Bool     // set at shutdown: the follower rescan must not attach more
	mux      *http.ServeMux
	started  time.Time
}

// serverConfig carries the daemon flags the serving layer needs: defaults
// for new tenants, the persistence policy, and the serving role.
type serverConfig struct {
	k               int
	threshold       float64
	seed            int64
	synthetic       int    // default size for /dbs creations without data
	storeRoot       string // "" = everything is ephemeral
	storeBackend    string // registered store driver ("file" | "mem")
	fsync           bool
	checkpointEvery int
	follower        bool          // serve replicated epochs; refuse writes
	replicaPoll     time.Duration // follower journal poll interval
	shards          int           // default shard count for new tenants (1 = unsharded)
}

func newServer(cfg serverConfig) *server {
	if cfg.storeBackend == "" {
		cfg.storeBackend = "file"
	}
	s := &server{cfg: cfg, tenants: make(map[string]*tenant), creating: make(map[string]bool), started: time.Now()}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /dbs", s.handleListDBs)
	s.mux.HandleFunc("POST /dbs", s.handleCreateDB)
	s.mux.HandleFunc("DELETE /dbs/{name}", s.handleDeleteDB)
	// Per-database routes, plus the legacy single-database aliases that
	// serve the default database.
	for _, route := range []struct {
		method, path string
		write        bool // mutates the database: leader-only
		h            func(http.ResponseWriter, *http.Request, *tenant)
	}{
		{"GET", "stats", false, s.handleStats},
		{"GET", "topk", false, s.handleTopK},
		{"GET", "quality", false, s.handleQuality},
		{"POST", "plan", false, s.handlePlan}, // planning only reads; executing the plan is /apply
		{"POST", "apply", true, s.handleApply},
		{"POST", "mutate", true, s.handleMutate},
	} {
		route := route
		h := route.h
		if route.write {
			h = s.leaderOnly(route.h)
		}
		s.mux.HandleFunc(route.method+" /dbs/{name}/"+route.path, func(w http.ResponseWriter, r *http.Request) {
			t, err := s.tenant(r.PathValue("name"))
			if err != nil {
				writeErr(w, http.StatusNotFound, err)
				return
			}
			h(w, r, t)
		})
		s.mux.HandleFunc(route.method+" /"+route.path, func(w http.ResponseWriter, r *http.Request) {
			t, err := s.tenant(defaultDB)
			if err != nil {
				writeErr(w, http.StatusNotFound, err)
				return
			}
			h(w, r, t)
		})
	}
	return s
}

// leaderOnly guards a write route: on a follower it answers 403 with the
// role error body instead of invoking the handler. Followers replicate the
// leader's journal; accepting a local write would fork the history.
func (s *server) leaderOnly(h func(http.ResponseWriter, *http.Request, *tenant)) func(http.ResponseWriter, *http.Request, *tenant) {
	if !s.cfg.follower {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request, _ *tenant) {
		s.writeRoleErr(w)
	}
}

// writeRoleErr is the follower's answer to any write: the body names this
// daemon's role and the role the request needs, so clients (and proxies)
// can re-route to the leader.
func (s *server) writeRoleErr(w http.ResponseWriter) {
	writeJSON(w, http.StatusForbidden, map[string]string{
		"error":         "this daemon is a read-only follower; send writes to the leader",
		"role":          "follower",
		"required_role": "leader",
	})
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// ---- the /topk body table -------------------------------------------------

// epoch names the database state a /topk body describes: its version and,
// on a follower, the replica generation the serving engine was built on —
// a resync swaps the database, possibly at a version number already
// served. Leaders and clusters report generation 0.
type epoch struct {
	gen     uint64
	version uint64
}

// before orders epochs: a resync is newer than every version of the
// generation it replaced.
func (e epoch) before(o epoch) bool {
	return e.gen < o.gen || e.gen == o.gen && e.version < o.version
}

// topkTableCap bounds the bodies kept per epoch. Requests at further
// thresholds are still computed and coalesced, just not kept.
const topkTableCap = 16

// topkCall is one /topk body: open while its leader computes it, closed
// once body or err is set.
type topkCall struct {
	done chan struct{}
	body []byte
	err  error
}

// topkTable is a tenant's single-flight table of /topk bodies for the
// live epoch, keyed by the threshold's bits (k is fixed per tenant; -0 and
// 0 echo differently in the body, so they are different keys). The first
// request for a threshold opens a call and computes it; requests that find
// the call open wait for its bytes (coalesced), and requests that find it
// closed write them at once (cached). A body is fully determined by
// (epoch, k, threshold), so a kept one stays exact until the next commit:
// the first request to arrive at a newer epoch drops the whole table.
type topkTable struct {
	mu    sync.Mutex
	at    epoch                // the epoch every call in calls belongs to
	calls map[uint64]*topkCall // by math.Float64bits(threshold)
	kept  int                  // closed calls in calls, at most topkTableCap

	coalesced atomic.Int64 // waits on an open call, exported via /stats
	cached    atomic.Int64 // hits on a closed call, exported via /stats
}

// do answers a request that arrived at epoch at: from the table when it
// holds the threshold, else by running fn, which returns the body and the
// epoch that body describes.
func (c *topkTable) do(at epoch, threshold float64, fn func() ([]byte, epoch, error)) ([]byte, error) {
	key := math.Float64bits(threshold)
	c.mu.Lock()
	if c.calls == nil || c.at.before(at) {
		c.reset(at)
	}
	if at != c.at {
		// A newer epoch is live already: this request raced a commit on
		// its way in. Answer it without touching the newer table.
		c.mu.Unlock()
		body, _, err := fn()
		return body, err
	}
	if call, ok := c.calls[key]; ok {
		c.mu.Unlock()
		select {
		case <-call.done:
			c.cached.Add(1)
		default:
			c.coalesced.Add(1)
			<-call.done
		}
		return call.body, call.err
	}
	call := &topkCall{done: make(chan struct{})}
	c.calls[key] = call
	c.mu.Unlock()

	var got epoch
	call.body, got, call.err = fn()
	c.mu.Lock()
	c.settle(key, call, got)
	c.mu.Unlock()
	close(call.done)
	return call.body, call.err
}

// settle files a finished call. It leaves its open slot and stays only as
// a body of the epoch it describes — which a commit racing the computation
// makes newer than the one it arrived at — while that epoch is live and
// the table has room. Errors never stay.
func (c *topkTable) settle(key uint64, call *topkCall, got epoch) {
	if c.calls[key] == call {
		delete(c.calls, key)
	}
	if call.err != nil {
		return
	}
	if c.at.before(got) {
		c.reset(got)
	}
	if _, taken := c.calls[key]; got == c.at && !taken && c.kept < topkTableCap {
		c.calls[key] = call
		c.kept++
	}
}

// reset empties the table for epoch at. Requests waiting on a dropped
// call hold it and still get its bytes.
func (c *topkTable) reset(at epoch) {
	if c.calls == nil {
		c.calls = make(map[uint64]*topkCall)
	} else {
		clear(c.calls)
	}
	c.at, c.kept = at, 0
}

// ---- wire types ------------------------------------------------------------

type answerJSON struct {
	H     int     `json:"h,omitempty"` // U-kRanks only: the rank this entry answers
	ID    string  `json:"id"`
	Score float64 `json:"score"`
	Rank  int     `json:"rank"` // rank-order position at answer time (0 = best)
	Prob  float64 `json:"prob"`
}

type topkResponse struct {
	Version    uint64       `json:"version"`
	K          int          `json:"k"`
	Threshold  float64      `json:"threshold"`
	Quality    float64      `json:"quality"`
	UKRanks    []answerJSON `json:"ukranks"`
	PTK        []answerJSON `json:"ptk"`
	GlobalTopK []answerJSON `json:"globaltopk"`
}

type qualityResponse struct {
	Version uint64  `json:"version"`
	K       int     `json:"k"`
	Quality float64 `json:"quality"`
}

type specJSON struct {
	Cost    int       `json:"cost,omitempty"`    // uniform cost (default 1)
	SCProb  float64   `json:"scprob,omitempty"`  // uniform sc-probability (default 1)
	Costs   []int     `json:"costs,omitempty"`   // per-x-tuple costs (override Cost)
	SCProbs []float64 `json:"scprobs,omitempty"` // per-x-tuple sc-probabilities (override SCProb)
}

type planRequest struct {
	Planner string   `json:"planner"` // dp | greedy | randp | randu | any registered
	Budget  int      `json:"budget"`
	Spec    specJSON `json:"spec"`
}

type planResponse struct {
	Version             uint64         `json:"version"`
	Planner             string         `json:"planner"`
	Budget              int            `json:"budget"`
	Plan                map[string]int `json:"plan"` // x-tuple index -> operations
	Ops                 int            `json:"ops"`
	Cost                int            `json:"cost"`
	ExpectedImprovement float64        `json:"expected_improvement"`
}

type applyRequest struct {
	Planner string         `json:"planner"`
	Budget  int            `json:"budget"`
	Spec    specJSON       `json:"spec"`
	Plan    map[string]int `json:"plan,omitempty"`    // explicit plan; omits the planner
	Version uint64         `json:"version,omitempty"` // optimistic concurrency: must match if nonzero
	Seed    int64          `json:"seed,omitempty"`    // agent rng; default: per-request stream
}

type applyResponse struct {
	Version     uint64         `json:"version"` // version after the apply
	OpsUsed     int            `json:"ops_used"`
	CostUsed    int            `json:"cost_used"`
	Resolved    map[string]int `json:"resolved"` // x-tuple index -> chosen alternative
	OldQuality  float64        `json:"old_quality"`
	NewQuality  float64        `json:"new_quality"`
	Improvement float64        `json:"improvement"`
}

type tupleJSON struct {
	ID    string    `json:"id"`
	Attrs []float64 `json:"attrs"`
	Prob  float64   `json:"prob"`
}

type mutateOp struct {
	Op     string      `json:"op"` // insert | insert_absent | delete | reweight | collapse
	Name   string      `json:"name,omitempty"`
	Tuples []tupleJSON `json:"tuples,omitempty"`
	Group  int         `json:"group,omitempty"`
	Probs  []float64   `json:"probs,omitempty"`
	Choice int         `json:"choice,omitempty"`
}

type mutateRequest struct {
	Ops []mutateOp `json:"ops"`
}

type mutateResponse struct {
	Version    uint64 `json:"version"`
	OpsApplied int    `json:"ops_applied"` // == len(ops) on success; see the error shape for partial commits
	XTuples    int    `json:"xtuples"`
	Tuples     int    `json:"tuples"`
}

type statsResponse struct {
	Name          string            `json:"name"`
	Role          string            `json:"role"` // leader | follower
	Version       uint64            `json:"version"`
	XTuples       int               `json:"xtuples"`
	Tuples        int               `json:"tuples"`
	RealTuples    int               `json:"real_tuples"`
	K             int               `json:"k"`
	Threshold     float64           `json:"threshold"`
	Durable       bool              `json:"durable"`
	WALRecords    int               `json:"wal_records_since_checkpoint"`
	CheckpointVer uint64            `json:"checkpoint_version"`
	Coalesced     int64             `json:"coalesced_queries"` // waited on an in-flight /topk
	Cached        int64             `json:"cached_queries"`    // answered from a kept /topk body
	DBs           int               `json:"dbs"`
	UptimeSeconds float64           `json:"uptime_seconds"`
	Replication   *replicationJSON  `json:"replication,omitempty"` // followers only
	Shards        []shard.ShardStat `json:"shards,omitempty"`      // sharded tenants: per-shard version/size/scan/lag
}

// replicationJSON is the follower's lag block in /stats.
type replicationJSON struct {
	AppliedVersion uint64 `json:"applied_version"`
	VersionsBehind uint64 `json:"versions_behind"`
	BytesBehind    int64  `json:"bytes_behind"`
	Ready          bool   `json:"ready"`
	Resyncs        uint64 `json:"resyncs"`
	LastError      string `json:"last_error,omitempty"`
}

type dbInfoJSON struct {
	Name      string  `json:"name"`
	Version   uint64  `json:"version"`
	XTuples   int     `json:"xtuples"`
	Tuples    int     `json:"tuples"`
	K         int     `json:"k"`
	Threshold float64 `json:"threshold"`
	Shards    int     `json:"shards,omitempty"` // > 1: sharded
	Durable   bool    `json:"durable"`
}

type createRequest struct {
	Name      string         `json:"name"`
	K         int            `json:"k,omitempty"`         // default: daemon -k
	Threshold float64        `json:"threshold,omitempty"` // default: daemon -threshold
	Seed      int64          `json:"seed,omitempty"`      // engine seed; default: daemon -seed
	Synthetic int            `json:"synthetic,omitempty"` // x-tuples to generate when no xtuples given
	GenSeed   int64          `json:"gen_seed,omitempty"`  // generator seed (default: daemon -seed)
	Shards    int            `json:"shards,omitempty"`    // > 1: sharded serving (default: daemon -shards)
	XTuples   []createXTuple `json:"xtuples,omitempty"`   // inline dataset (wins over synthetic)
}

type createXTuple struct {
	Name   string      `json:"name"`
	Absent bool        `json:"absent,omitempty"`
	Tuples []tupleJSON `json:"tuples,omitempty"`
}

// ---- handlers --------------------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.follower {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "role": "leader"})
		return
	}
	// A follower is healthy once every replica has caught up to its
	// journal tail at least once — before that, answers would reflect an
	// arbitrarily old prefix of the leader's history.
	ready := true
	for _, t := range s.tenantList() {
		if !t.ready() {
			ready = false
			break
		}
	}
	status, code := "ok", http.StatusOK
	if !ready {
		status, code = "starting", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{"status": status, "role": "follower", "ready": ready})
}

func (t *tenant) info() dbInfoJSON {
	info := t.layer.info()
	info.Name = t.name
	return info
}

func (s *server) handleListDBs(w http.ResponseWriter, r *http.Request) {
	ts := s.tenantList()
	infos := make([]dbInfoJSON, len(ts))
	for i, t := range ts {
		infos[i] = t.info()
	}
	writeJSON(w, http.StatusOK, map[string]any{"dbs": infos})
}

func (s *server) handleCreateDB(w http.ResponseWriter, r *http.Request) {
	if s.cfg.follower {
		s.writeRoleErr(w)
		return
	}
	var req createRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if !tenantNameRE.MatchString(req.Name) {
		writeErr(w, http.StatusBadRequest, errBadName)
		return
	}
	db, err := s.buildDatabase(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	t, err := s.addTenant(req.Name, db, tenantConfig{K: req.K, Threshold: req.Threshold, Seed: req.Seed, Shards: req.Shards})
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errTenantExists) {
			status = http.StatusConflict
		}
		writeErr(w, status, err)
		return
	}
	writeJSON(w, http.StatusCreated, t.info())
}

// buildDatabase materializes a /dbs creation request: an inline dataset
// when given, the synthetic workload otherwise.
func (s *server) buildDatabase(req createRequest) (*topkclean.Database, error) {
	if len(req.XTuples) == 0 {
		size := req.Synthetic
		if size <= 0 {
			size = s.cfg.synthetic
		}
		seed := req.GenSeed
		if seed == 0 {
			seed = s.cfg.seed
		}
		return newSynthetic(size, seed)
	}
	db := topkclean.NewDatabase()
	for _, jx := range req.XTuples {
		if jx.Absent || len(jx.Tuples) == 0 {
			if err := db.AddAbsentXTuple(jx.Name); err != nil {
				return nil, err
			}
			continue
		}
		ts := make([]topkclean.Tuple, len(jx.Tuples))
		for i, jt := range jx.Tuples {
			ts[i] = topkclean.Tuple{ID: jt.ID, Attrs: jt.Attrs, Prob: jt.Prob}
		}
		if err := db.AddXTuple(jx.Name, ts...); err != nil {
			return nil, err
		}
	}
	if err := db.Build(topkclean.ByFirstAttr); err != nil {
		return nil, err
	}
	return db, nil
}

func (s *server) handleDeleteDB(w http.ResponseWriter, r *http.Request) {
	if s.cfg.follower {
		s.writeRoleErr(w)
		return
	}
	name := r.PathValue("name")
	if err := s.deleteTenant(name); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errTenantMissing) {
			status = http.StatusNotFound
		}
		writeErr(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request, t *tenant) {
	role := "leader"
	if s.cfg.follower {
		role = "follower"
	}
	resp := statsResponse{Name: t.name, Role: role}
	t.stats(&resp)
	resp.Coalesced = t.topk.coalesced.Load()
	resp.Cached = t.topk.cached.Load()
	resp.UptimeSeconds = time.Since(s.started).Seconds()
	s.mu.RLock()
	resp.DBs = len(s.tenants)
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleTopK(w http.ResponseWriter, r *http.Request, t *tenant) {
	threshold := t.Threshold()
	if q := r.URL.Query().Get("threshold"); q != "" {
		v, err := strconv.ParseFloat(q, 64)
		// Reject non-finite values outright: they are meaningless as
		// probability thresholds.
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("threshold must be a finite number"))
			return
		}
		threshold = v
	}
	// Look up on the epoch visible at arrival. A hit writes bytes kept
	// since that epoch's first request: no engine call, no encoding. If a
	// commit lands between the lookup and the answer, the answer is simply
	// the newer epoch's (reported in its body) — still one consistent
	// epoch, and never older than what the client saw acknowledged.
	body, err := t.topk.do(t.epoch(), threshold, func() ([]byte, epoch, error) {
		// Compute detached from the leader's request context: waiters
		// with live connections share this result, and the leader's
		// client hanging up must not fail them all with its cancellation.
		res, at, err := t.answers(context.WithoutCancel(r.Context()), threshold)
		if err != nil {
			return nil, epoch{}, err
		}
		body, err := encodeTopK(res)
		return body, at, err
	})
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	// An explicit length: a body past net/http's pre-chunk buffer would
	// otherwise go out chunked.
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// encodeTopK is the /topk wire body of a result.
func encodeTopK(res *topkclean.Result) ([]byte, error) {
	resp := topkResponse{
		Version:    res.Version,
		K:          res.K,
		Threshold:  res.Threshold,
		Quality:    res.Quality,
		UKRanks:    make([]answerJSON, 0, len(res.UKRanks)),
		PTK:        make([]answerJSON, 0, len(res.PTK)),
		GlobalTopK: make([]answerJSON, 0, len(res.GlobalTopK)),
	}
	for _, a := range res.UKRanks {
		resp.UKRanks = append(resp.UKRanks, answerJSON{H: a.H, ID: a.ID, Score: a.Score, Rank: a.Rank, Prob: a.Prob})
	}
	for _, a := range res.PTK {
		resp.PTK = append(resp.PTK, answerJSON{ID: a.ID, Score: a.Score, Rank: a.Rank, Prob: a.Prob})
	}
	for _, a := range res.GlobalTopK {
		resp.GlobalTopK = append(resp.GlobalTopK, answerJSON{ID: a.ID, Score: a.Score, Rank: a.Rank, Prob: a.Prob})
	}
	return json.Marshal(resp)
}

func (s *server) handleQuality(w http.ResponseWriter, r *http.Request, t *tenant) {
	k := t.K()
	if q := r.URL.Query().Get("k"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("k must be a positive integer"))
			return
		}
		k = v
	}
	quality, version, err := t.QualityAtVersion(r.Context(), k)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, qualityResponse{Version: version, K: k, Quality: quality})
}

// buildSpec materializes a wire spec for m x-tuples: per-x-tuple arrays
// win over the uniform fields; the defaults (cost 1, sc-probability 1)
// model free-choice certain probes.
func buildSpec(m int, sj specJSON) (topkclean.CleaningSpec, error) {
	cost, scp := sj.Cost, sj.SCProb
	if cost == 0 {
		cost = 1
	}
	if scp == 0 {
		scp = 1
	}
	spec := topkclean.UniformCleaningSpec(m, cost, scp)
	if sj.Costs != nil {
		if len(sj.Costs) != m {
			return spec, fmt.Errorf("costs: got %d entries for %d x-tuples", len(sj.Costs), m)
		}
		spec.Costs = sj.Costs
	}
	if sj.SCProbs != nil {
		if len(sj.SCProbs) != m {
			return spec, fmt.Errorf("scprobs: got %d entries for %d x-tuples", len(sj.SCProbs), m)
		}
		spec.SCProbs = sj.SCProbs
	}
	return spec, nil
}

func planToWire(p topkclean.CleaningPlan) map[string]int {
	out := make(map[string]int, len(p))
	for l, ops := range p {
		if ops > 0 {
			out[strconv.Itoa(l)] = ops
		}
	}
	return out
}

func wireToPlan(m map[string]int) (topkclean.CleaningPlan, error) {
	p := topkclean.CleaningPlan{}
	for l, ops := range m {
		idx, err := strconv.Atoi(l)
		if err != nil || idx < 0 {
			return nil, fmt.Errorf("plan key %q is not an x-tuple index", l)
		}
		if ops > 0 {
			p[idx] = ops
		}
	}
	return p, nil
}

// errShardedCleaning: the budgeted-cleaning planners evaluate candidate
// collapses against one engine's cleaning context; the sharded layer does
// not thread that yet.
var errShardedCleaning = errors.New("budgeted cleaning is not supported on sharded databases yet; create the database with shards=1")

// cleaningEngine is the planning engine of a /plan or /apply target, or
// nil after answering the refusal for tenants without one.
func cleaningEngine(w http.ResponseWriter, t *tenant) *topkclean.Engine {
	eng := t.engine()
	if eng == nil {
		writeErr(w, http.StatusBadRequest, errShardedCleaning)
	}
	return eng
}

func (s *server) handlePlan(w http.ResponseWriter, r *http.Request, t *tenant) {
	eng := cleaningEngine(w, t)
	if eng == nil {
		return
	}
	var req planRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Planner == "" {
		req.Planner = "greedy"
	}
	spec, err := buildSpec(eng.DB().Snapshot().NumGroups(), req.Spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	plan, cctx, err := eng.PlanCleaning(r.Context(), req.Planner, spec, req.Budget)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, planResponse{
		Version:             cctx.Version,
		Planner:             req.Planner,
		Budget:              req.Budget,
		Plan:                planToWire(plan),
		Ops:                 plan.Ops(),
		Cost:                plan.TotalCost(spec),
		ExpectedImprovement: topkclean.ExpectedImprovement(cctx, plan),
	})
}

func (s *server) handleApply(w http.ResponseWriter, r *http.Request, t *tenant) {
	eng := cleaningEngine(w, t)
	if eng == nil {
		return
	}
	var req applyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Planner == "" {
		req.Planner = "greedy"
	}
	spec, err := buildSpec(eng.DB().Snapshot().NumGroups(), req.Spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var plan topkclean.CleaningPlan
	var cctx *topkclean.CleaningContext
	if len(req.Plan) > 0 {
		if plan, err = wireToPlan(req.Plan); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		cctx, err = eng.CleaningContext(r.Context(), spec, req.Budget)
	} else {
		plan, cctx, err = eng.PlanCleaning(r.Context(), req.Planner, spec, req.Budget)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Version != 0 && cctx.Version != req.Version {
		writeErr(w, http.StatusConflict, fmt.Errorf("version %d requested, database at %d", req.Version, cctx.Version))
		return
	}
	// Each apply draws from its own stream: replaying one fixed stream
	// would correlate every request's simulated agent. An explicit seed
	// makes a request reproducible.
	seed := req.Seed
	if seed == 0 {
		seed = s.cfg.seed + 7919*t.applies.Add(1)
	}
	oldQuality := cctx.Eval.S
	// The write mutex covers only the commit + its journal record, so the
	// WAL stays in commit order without serializing the (possibly slow)
	// planning above against other mutations. A commit that raced in
	// between planning and here fails the staleness re-check inside
	// ApplyCleaning with the same 409 it would have before the lock.
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	out, err := eng.ApplyCleaning(r.Context(), cctx, plan, rand.New(rand.NewSource(seed)))
	if out != nil {
		// The collapses are committed (even when err != nil: ApplyCleaning
		// returns the outcome alongside a failed re-evaluation); journal
		// them before answering anything, or the live database would be
		// ahead of the WAL and the store would poison itself on the next
		// write while the cleaning silently vanished on recovery.
		if jerr := t.journalCleaning(out.Choices); jerr != nil {
			writeErr(w, http.StatusInternalServerError, jerr)
			return
		}
	}
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, topkclean.ErrStaleCleaningContext) {
			status = http.StatusConflict // a concurrent mutation won the race
		}
		writeErr(w, status, err)
		return
	}
	resolved := make(map[string]int, len(out.Choices))
	for l, choice := range out.Choices {
		resolved[strconv.Itoa(l)] = choice
	}
	// The version this apply produced is determined, not re-read: the
	// context pinned cctx.Version, the stale check inside the batch
	// guarantees no commit interleaved, and the collapses (if any)
	// committed exactly one version on top. Re-reading the live version
	// here could mislabel a mutation that raced in after us.
	version := cctx.Version
	if len(out.Choices) > 0 {
		version++
	}
	writeJSON(w, http.StatusOK, applyResponse{
		Version:     version,
		OpsUsed:     out.OpsUsed,
		CostUsed:    out.CostUsed,
		Resolved:    resolved,
		OldQuality:  oldQuality,
		NewQuality:  out.NewQuality,
		Improvement: out.Improvement,
	})
}

// opSink is the mutation surface shared by *topkclean.Batch (ephemeral
// tenants), *store.Batch (durable tenants, which journal each successful
// op) and *shard.Batch (sharded tenants), so one request decoder drives
// all three.
type opSink interface {
	InsertXTuple(name string, tuples ...topkclean.Tuple) error
	InsertAbsentXTuple(name string) error
	DeleteXTuple(l int) error
	Reweight(l int, probs []float64) error
	Collapse(l, choice int) error
}

// batchOps applies a /mutate op list through one batch of a layer's
// writer, so the whole list commits as a single epoch. It reports how many
// ops succeeded (all of them unless an error stopped the list) and the
// version the commit reached from base.
func batchOps[B opSink](batch func(func(B) error) error, ops []mutateOp, base uint64) (mutateResponse, error) {
	resp := mutateResponse{Version: base}
	err := batch(func(b B) error {
		for i, op := range ops {
			var err error
			switch op.Op {
			case "insert":
				ts := make([]topkclean.Tuple, len(op.Tuples))
				for j, tj := range op.Tuples {
					ts[j] = topkclean.Tuple{ID: tj.ID, Attrs: tj.Attrs, Prob: tj.Prob}
				}
				err = b.InsertXTuple(op.Name, ts...)
			case "insert_absent":
				err = b.InsertAbsentXTuple(op.Name)
			case "delete":
				err = b.DeleteXTuple(op.Group)
			case "reweight":
				err = b.Reweight(op.Group, op.Probs)
			case "collapse":
				err = b.Collapse(op.Group, op.Choice)
			default:
				err = fmt.Errorf("unknown op %q", op.Op)
			}
			if err != nil {
				return fmt.Errorf("op %d (%s): %w", i, op.Op, err)
			}
			resp.OpsApplied++
		}
		return nil
	})
	if resp.OpsApplied > 0 {
		resp.Version++ // the batch committed exactly one epoch
	}
	return resp, err
}

func (s *server) handleMutate(w http.ResponseWriter, r *http.Request, t *tenant) {
	var req mutateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Ops) == 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("mutate: no ops"))
		return
	}
	// One batch per request: the whole op list commits as a single epoch,
	// so queries see none or all of it. There is no rollback across ops —
	// on error, ops before the failing one stay applied (and committed,
	// and journaled on durable tenants); the response reports the error
	// together with ops_applied and the resulting version, so clients can
	// tell a partial commit from nothing-applied. Mutating endpoints
	// serialize on the tenant's write mutex (queries never do), so the
	// sizes and versions mutate reports cannot be another writer's.
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	resp, err := t.mutate(req.Ops)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, uncertain.ErrFrozenSnapshot) || errors.Is(err, store.ErrPoisoned) || errors.Is(err, shard.ErrPoisoned) {
			status = http.StatusInternalServerError
		}
		writeJSON(w, status, map[string]any{
			"error":       err.Error(),
			"ops_applied": resp.OpsApplied,
			"version":     resp.Version,
		})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
