package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
)

// A workload is a seeded, fixed-length, closed-loop request sequence
// against the daemon's default database.
type workload struct {
	name    string
	why     string
	xtuples int // default database size (full size)
	tiny    int // default database size in tiny mode
	conns   int // concurrent connections (each a closed loop)
	durable bool
	shards  int
	// rate is the nominal pace on a 2-vCPU machine — requests per second
	// for read_hot, cycles per second otherwise — which turns --seconds
	// into a fixed request count: every run with the same arguments sends
	// the same requests in the same order.
	rate float64
	// traceCycles is the length of the traced in-process replay (cycles,
	// or requests per connection for read_hot).
	traceCycles int
}

var workloads = []*workload{
	{
		name: "read_hot", xtuples: 10000, tiny: 200, conns: 1, rate: 4500, traceCycles: 5000,
		why: "10^4 x-tuples, 1 connection, read-only /topk at skewed thresholds and /quality at four k: every request hits the engine memo, so it measures HTTP, the PT-k scan and JSON",
	},
	{
		name: "churn_requery", xtuples: 100000, tiny: 300, conns: 1, rate: 60, traceCycles: 300,
		why: "10^5 x-tuples (~1.1M tuples), 1 connection, mutate/topk/quality cycles: every query misses the memo on a working set far larger than the caches",
	},
	{
		name: "durable_clean", xtuples: 10000, tiny: 200, conns: 1, durable: true, rate: 500, traceCycles: 1200,
		why: "10^4 x-tuples under a fsync'd file store, 1 connection, mutate/topk/quality cycles plus dp /plan and greedy /apply: WAL, fsync, checkpoints, planners",
	},
	{
		name: "sharded_churn", xtuples: 10000, tiny: 200, conns: 1, shards: 4, rate: 300, traceCycles: 600,
		why: "the churn cycle at 10^4 x-tuples over 4 range shards, 1 connection: the shard router, rebalance and merge coordinator",
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Query shape shared by the daemon flags and the in-process replay. The
// PT-k threshold is low, so a /topk answer is large (~17 KB at 10^4
// x-tuples): the PT-k scan and JSON encoding outweigh the HTTP round trip,
// whose wake-up latency is the noisiest part of a request on a small VM.
const (
	queryK         = 15
	queryThreshold = 0.02
	qualityK       = 10  // the /quality?k= of the churn cycles: a second memo slot
	planBudget     = 200 // dp /plan budget: large enough that planning, not HTTP, dominates
	planSCProb     = 0.5 // sc-probability < 1 gives the dp several operations per x-tuple
	applyBudget    = 1   // greedy /apply budget: one collapse per cleaning step
	cleanEvery     = 8   // durable_clean adds /plan + /apply every 8th cycle
	healthEvery    = 50  // one /healthz every 50 requests per connection
)

// read_hot's skewed threshold and k sets. One value of each carries 70%
// of the draws: the answers' sizes differ by threshold, and a median
// taken at the seam between two of them would jump between runs.
var (
	hotThresholds = []float64{0.02, 0.01, 0.05, 0.1, 0.2}
	hotKs         = []int{10, 5, 15, 20}
	hotWeights    = []float64{0.7, 0.1, 0.1, 0.05, 0.05}
)

type kind int

const (
	kTopK kind = iota
	kQuality
	kMutate
	kPlan
	kApply
	kHealthz
	numKinds
)

var kindNames = [numKinds]string{"topk", "quality", "mutate", "plan", "apply", "healthz"}

// request is one request of the sequence together with the exact response
// body the in-process replay computed for it.
type request struct {
	kind    kind
	path    string // path and query
	body    []byte // POST body; nil for GET
	want    []byte // expected response body; nil: check the answer's invariants
	warm    bool   // warm-up: sent but not measured
	thresh  float64
	k       int
	version uint64 // /topk, /quality: the last acknowledged version
	got     []byte // the response, kept when want is nil
}

func (r *request) method() string {
	if r.body != nil {
		return "POST"
	}
	return "GET"
}

// shadow is the generator's model of the database: each group's real
// alternative count, the live arrival, and the groups a cleaning collapsed
// to one certain alternative. Drawing only operations the model says are
// valid keeps every request of the sequence valid by construction.
type shadow struct {
	rng      *rand.Rand
	top      []float64 // scores of the leading rank positions, above the scan's termination point
	cycle    int       // churn cycles drawn so far
	alts     []int     // real alternatives per group index
	base     int       // groups 0..base-1 are the generated ones
	arrival  int       // group index of the live arrival, -1 if none
	arrivals int       // arrivals so far (names a0, a1, ...)
	reopen   []int     // collapsed to a real alternative, oldest first
}

// churnBody draws one churn /mutate batch: delete the previous arrival
// (always the last group, so the generated groups keep their indices and
// the group count stays constant), reweight three generated groups, and
// insert a new arrival. Arrivals follow a fixed near, near, anywhere,
// anywhere pattern, so in every run three cycles in four move the top of
// the ranking (the watermark lands above the scan's termination point)
// and one in four leaves it alone — a /topk latency distribution whose
// median sits inside one mode rather than between two.
func (s *shadow) churnBody() ([]byte, int) {
	var ops []mutateOp
	if s.arrival >= 0 {
		ops = append(ops, mutateOp{Op: "delete", Group: s.arrival})
		s.alts = s.alts[:s.arrival]
		s.arrival = -1
	}
	for i := 0; i < 3; i++ {
		g := s.pickGroup(s.base)
		ops = append(ops, mutateOp{Op: "reweight", Group: g, Probs: s.probs(s.alts[g])})
	}
	near := s.cycle%4 < 2
	s.cycle++
	return s.encode(append(ops, s.arrive(near)))
}

// durableBody draws one durable_clean /mutate batch: one reweight of a
// group holding a rank position inside the latest scan's processed prefix
// — the stream of revised readings at the top that keeps cleaning from
// converging to a certain top-k, and puts every cycle's watermark above
// the scan's termination point — and one uniformly scored arrival, no
// delete. topGroup reports the group at a rank position of the replayed
// database.
func (s *shadow) durableBody(processed int, topGroup func(pos int) int) ([]byte, int, error) {
	g := topGroup(s.rng.Intn(processed))
	if s.alts[g] == 0 {
		return nil, 0, fmt.Errorf("shadow model out of step: group %d holds a top position but has no real alternative", g)
	}
	ops := []mutateOp{{Op: "reweight", Group: g, Probs: s.probs(s.alts[g])}}
	body, n := s.encode(append(ops, s.arrive(false)))
	return body, n, nil
}

func (s *shadow) encode(ops []mutateOp) ([]byte, int) {
	body, err := json.Marshal(mutateRequest{Ops: ops})
	if err != nil {
		panic(err) // plain structs of finite numbers always encode
	}
	return body, len(ops)
}

// pickGroup draws one of the first n groups with a real alternative.
func (s *shadow) pickGroup(n int) int {
	for {
		if g := s.rng.Intn(n); s.alts[g] > 0 {
			return g
		}
	}
}

// probs draws n positive probabilities with total mass in [0.3, 0.95].
func (s *shadow) probs(n int) []float64 {
	u := make([]float64, n)
	sum := 0.0
	for i := range u {
		u[i] = 0.05 + s.rng.Float64()
		sum += u[i]
	}
	mass := 0.3 + 0.65*s.rng.Float64()
	for i := range u {
		u[i] = u[i] / sum * mass
	}
	return u
}

// arrive draws a 2-alternative arrival. A near arrival's first
// alternative lands just above a uniformly drawn one of the leading rank
// positions, above the scan's termination point whatever the data; any
// other arrival scores uniformly over the synthetic domain.
// durable_clean never deletes, so all its arrivals score uniformly:
// near-top arrivals would pile up and make every later request of the run
// costlier than the one before.
func (s *shadow) arrive(near bool) mutateOp {
	score := s.rng.Float64() * 10000
	if near {
		score = s.top[s.rng.Intn(len(s.top))] + 1e-3
	}
	gap := 5 + s.rng.Float64()*55
	p1 := 0.2 + 0.4*s.rng.Float64()
	p2 := 0.1 + 0.25*s.rng.Float64()
	name := "a" + strconv.Itoa(s.arrivals)
	s.arrivals++
	s.arrival = len(s.alts)
	s.alts = append(s.alts, 2)
	return mutateOp{Op: "insert", Name: name, Tuples: []tupleJSON{
		{ID: name + ".0", Attrs: []float64{score}, Prob: p1},
		{ID: name + ".1", Attrs: []float64{score - gap}, Prob: p2},
	}}
}

// resolve applies an /apply's resolved map: a group collapsed to its null
// (the alternative after the real ones) has no real alternative left; one
// collapsed to a real alternative keeps exactly that one.
func (s *shadow) resolve(resolved map[string]int) error {
	groups := make([]int, 0, len(resolved))
	for key := range resolved {
		g, err := strconv.Atoi(key)
		if err != nil || g < 0 || g >= len(s.alts) {
			return fmt.Errorf("resolved group %q out of range", key)
		}
		groups = append(groups, g)
	}
	sort.Ints(groups)
	for _, g := range groups {
		if resolved[strconv.Itoa(g)] == s.alts[g] {
			s.alts[g] = 0
		} else {
			s.alts[g] = 1
		}
	}
	return nil
}

// hotRequest draws one read_hot request: 75% /topk at a skewed threshold,
// 25% /quality at a skewed k.
func hotRequest(rng *rand.Rand) *request {
	if rng.Intn(4) == 3 {
		return qualityRequest(hotKs[skewed(rng, len(hotKs))])
	}
	return topkRequest(hotThresholds[skewed(rng, len(hotThresholds))])
}

// skewed draws an index below n with the hotWeights distribution.
func skewed(rng *rand.Rand, n int) int {
	x := rng.Float64()
	for i := 0; i < n-1; i++ {
		if x < hotWeights[i] {
			return i
		}
		x -= hotWeights[i]
	}
	return n - 1
}

func topkRequest(t float64) *request {
	return &request{kind: kTopK, path: "/topk?threshold=" + strconv.FormatFloat(t, 'g', -1, 64), thresh: t}
}

func qualityRequest(k int) *request {
	return &request{kind: kQuality, path: "/quality?k=" + strconv.Itoa(k), k: k}
}
