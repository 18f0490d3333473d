package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/probdb/topkclean/internal/quality"
	"github.com/probdb/topkclean/internal/topkq"
	"github.com/probdb/topkclean/internal/uncertain"
)

// The differential battery: a cluster and an unsharded database replay
// the same randomized mutation script, and after every step every answer
// — U-kRanks, PT-k, Global-topk, quality — is compared bit-for-bit
// (math.Float64bits), along with versions, counts, and error parity.
// The cluster's internal placement invariants and the merge's pull bound
// are checked after every step too, so a placement bug fails at the step
// that introduces it, not at the (possibly much later) step whose answers
// it skews.

// mirror drives both engines through the same script.
type mirror struct {
	t   *testing.T
	c   *Cluster
	db  *uncertain.Database
	rng *rand.Rand
	idc int // tuple ID counter
	gc  int // group name counter
}

func newMirror(t *testing.T, seed int64, shards, k, startGroups int) *mirror {
	t.Helper()
	return newMirrorCfg(t, seed, Config{Shards: shards, K: k, Threshold: 0.25}, startGroups)
}

func newMirrorCfg(t *testing.T, seed int64, cfg Config, startGroups int) *mirror {
	t.Helper()
	m := &mirror{t: t, db: uncertain.New(), rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < startGroups; i++ {
		if m.rng.Intn(12) == 0 {
			m.must(m.db.AddAbsentXTuple(m.groupName()))
			continue
		}
		name := m.groupName()
		m.must(m.db.AddXTuple(name, m.genTuples()...))
	}
	m.must(m.db.Build(uncertain.ByFirstAttr))
	c, err := FromDatabase(m.db, cfg)
	m.must(err)
	m.c = c
	return m
}

func (m *mirror) must(err error) {
	m.t.Helper()
	if err != nil {
		m.t.Fatalf("setup failed: %v", err)
	}
}

func (m *mirror) groupName() string { m.gc++; return fmt.Sprintf("g%d", m.gc) }

// genTuples generates alternatives with scores from a tiny integer
// domain, so ties are everywhere and the merge constantly breaks ties
// across shards by stamp.
func (m *mirror) genTuples() []uncertain.Tuple {
	alts := 1 + m.rng.Intn(4)
	ts := make([]uncertain.Tuple, alts)
	budget := 1.0
	for a := range ts {
		p := budget * (0.1 + 0.8*m.rng.Float64()) / float64(alts-a)
		if a == alts-1 && m.rng.Intn(3) == 0 {
			p = budget // full mass: exercises the fullGroups path
		}
		budget -= p
		m.idc++
		ts[a] = uncertain.Tuple{
			ID:    fmt.Sprintf("t%d", m.idc),
			Attrs: []float64{float64(m.rng.Intn(8)), m.rng.Float64()},
			Prob:  p,
		}
	}
	return ts
}

func (m *mirror) mustBoth(errC, errP error) {
	m.t.Helper()
	m.errParity(errC, errP)
	if errP != nil {
		m.t.Fatalf("setup failed: %v", errP)
	}
}

// errParity requires the cluster and the plain database to accept or
// reject an operation identically, with the identical error text.
func (m *mirror) errParity(errC, errP error) {
	m.t.Helper()
	switch {
	case errC == nil && errP == nil:
	case errC == nil || errP == nil:
		m.t.Fatalf("error parity: cluster=%v plain=%v", errC, errP)
	case errC.Error() != errP.Error():
		m.t.Fatalf("error text: cluster=%q plain=%q", errC, errP)
	}
}

// step applies one random operation to both sides.
func (m *mirror) step() {
	t := m.t
	t.Helper()
	mg := m.db.NumGroups()
	switch r := m.rng.Intn(100); {
	case r < 30: // insert
		name := m.groupName()
		ts := m.genTuples()
		if m.rng.Intn(6) == 0 && len(ts) >= 2 {
			// Force a maximally spread group: top and bottom scores.
			ts[0].Attrs[0] = 7
			ts[len(ts)-1].Attrs[0] = 0
		}
		m.errParity(m.c.Batch(func(b *Batch) error { return b.InsertXTuple(name, ts...) }), m.db.InsertXTuple(name, ts...))
	case r < 35: // absent insert
		name := m.groupName()
		m.errParity(m.c.Batch(func(b *Batch) error { return b.InsertAbsentXTuple(name) }), m.db.InsertAbsentXTuple(name))
	case r < 55: // reweight
		l := m.rng.Intn(mg)
		probs := m.genProbs(len(m.db.Groups()[l].RealTuples()))
		m.errParity(m.c.Batch(func(b *Batch) error { return b.Reweight(l, probs) }), m.db.Reweight(l, probs))
	case r < 67: // collapse
		l := m.rng.Intn(mg)
		choice := m.rng.Intn(len(m.db.Groups()[l].Tuples))
		m.errParity(m.c.Batch(func(b *Batch) error { return b.Collapse(l, choice) }), m.db.Collapse(l, choice))
	case r < 80: // delete (keep m comfortably above k)
		if mg <= m.c.K()+2 {
			return
		}
		l := m.rng.Intn(mg)
		m.errParity(m.c.Batch(func(b *Batch) error { return b.DeleteXTuple(l) }), m.db.DeleteXTuple(l))
	case r < 90: // batch of 2-3 ops, sometimes with a failing tail
		m.stepBatch()
	case r < 95: // invalid operations: error parity, no state change
		m.stepInvalid()
	default: // tuple IDs freed and taken again
		m.stepReuse()
	}
}

func (m *mirror) genProbs(n int) []float64 {
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = (0.05 + 0.9*m.rng.Float64()) / float64(n)
	}
	return probs
}

// stepBatch applies the same multi-op batch to both sides; an optional
// final duplicate-ID insert exercises prefix-on-failure parity.
func (m *mirror) stepBatch() {
	type ins struct {
		name string
		ts   []uncertain.Tuple
	}
	var inss []ins
	nops := 2 + m.rng.Intn(2)
	for i := 0; i < nops; i++ {
		inss = append(inss, ins{name: m.groupName(), ts: m.genTuples()})
	}
	failTail := m.rng.Intn(3) == 0
	if failTail {
		bad := m.genTuples()
		bad[0].ID = inss[0].ts[0].ID // duplicates an ID the batch just inserted
		inss = append(inss, ins{name: m.groupName(), ts: bad})
	}
	run := func(insert func(name string, ts ...uncertain.Tuple) error) error {
		for _, op := range inss {
			if err := insert(op.name, op.ts...); err != nil {
				return err
			}
		}
		return nil
	}
	errC := m.c.Batch(func(b *Batch) error { return run(b.InsertXTuple) })
	errP := m.db.Batch(func(b *uncertain.Batch) error { return run(b.InsertXTuple) })
	m.errParity(errC, errP)
}

// stepInvalid issues operations that must be rejected identically and
// leave both sides unchanged.
func (m *mirror) stepInvalid() {
	mg := m.db.NumGroups()
	switch m.rng.Intn(4) {
	case 0: // duplicate tuple ID
		ts := m.genTuples()
		ts[0].ID = "t1"
		name := m.groupName()
		m.errParity(m.c.Batch(func(b *Batch) error { return b.InsertXTuple(name, ts...) }), m.db.InsertXTuple(name, ts...))
	case 1: // out-of-range group index
		l := mg + 3
		m.errParity(m.c.Batch(func(b *Batch) error { return b.DeleteXTuple(l) }), m.db.DeleteXTuple(l))
	case 2: // reweight count mismatch
		l := m.rng.Intn(mg)
		probs := m.genProbs(len(m.db.Groups()[l].RealTuples()) + 1)
		m.errParity(m.c.Batch(func(b *Batch) error { return b.Reweight(l, probs) }), m.db.Reweight(l, probs))
	case 3: // collapse choice out of range
		l := m.rng.Intn(mg)
		choice := len(m.db.Groups()[l].Tuples)
		m.errParity(m.c.Batch(func(b *Batch) error { return b.Collapse(l, choice) }), m.db.Collapse(l, choice))
	}
}

// reuseSink is the mutation surface stepReuse drives on both sides: the
// cluster's Batch and the database's.
type reuseSink interface {
	InsertXTuple(name string, tuples ...uncertain.Tuple) error
	DeleteXTuple(l int) error
	Reweight(l int, probs []float64) error
	Collapse(l, choice int) error
}

// stepReuse frees tuple IDs and takes them again, on whatever shard
// place picks, so the duplicate-ID check must consult every shard's live
// index. It deletes or collapses a random x-tuple and re-inserts one of
// the real IDs that freed. Then it inserts an explicit tuple ID
// null:<name> while group name's null exists (rejected on both sides),
// reweights the group to full mass, which removes the null, and inserts
// the ID again (accepted on both sides). A partial reweight of group name
// would then materialize a second null:<name>, so it is rejected on both
// sides too, wherever the holder landed; the holder stays, and later
// reweights of the group keep meeting it. The ops run as one batch per
// side, so the step is one commit like every other step.
func (m *mirror) stepReuse() {
	t := m.t
	t.Helper()
	mg := m.db.NumGroups()
	l := m.rng.Intn(mg)
	x := m.db.GroupAt(l)
	var first func(reuseSink) error
	var freed []string
	if mg > m.c.K()+2 && m.rng.Intn(2) == 0 {
		for _, tu := range x.RealTuples() {
			freed = append(freed, tu.ID)
		}
		first = func(b reuseSink) error { return b.DeleteXTuple(l) }
		mg--
	} else {
		choice := m.rng.Intn(len(x.Tuples))
		for i, tu := range x.Tuples {
			if i != choice && !tu.Null {
				freed = append(freed, tu.ID)
			}
		}
		first = func(b reuseSink) error { return b.Collapse(l, choice) }
	}
	type insert struct {
		name string
		ts   []uncertain.Tuple
	}
	var reuse *insert
	if len(freed) > 0 {
		reuse = &insert{name: m.groupName(), ts: m.genTuples()}
		reuse.ts[0].ID = freed[m.rng.Intn(len(freed))]
		mg++
	}
	name := m.groupName()
	ts := m.genTuples()
	for i := range ts {
		ts[i].Prob = 0.5 / float64(len(ts)) // leaves a null
	}
	g := mg // name's index
	full := make([]float64, len(ts))
	half := make([]float64, len(ts))
	for i := range full {
		full[i] = 1 / float64(len(ts))
		half[i] = full[i] / 2
	}
	holder := m.groupName()
	clash := []uncertain.Tuple{{ID: "null:" + name, Attrs: []float64{float64(m.rng.Intn(8))}, Prob: 0.5}}

	// The script records every op's error and carries on, so the two
	// sides can be compared op by op.
	// Indices of the ops that must be rejected: the insert beside the live
	// null and the reweight that would materialize a second one.
	clashed := map[int]bool{3: true, 6: true}
	script := func(b reuseSink) []error {
		errs := []error{first(b), nil}
		if reuse != nil {
			errs[1] = b.InsertXTuple(reuse.name, reuse.ts...)
		}
		return append(errs,
			b.InsertXTuple(name, ts...),
			b.InsertXTuple(holder, clash...),
			b.Reweight(g, full),
			b.InsertXTuple(holder, clash...),
			b.Reweight(g, half))
	}
	var errsC, errsP []error
	m.mustBoth(
		m.c.Batch(func(b *Batch) error { errsC = script(b); return nil }),
		m.db.Batch(func(b *uncertain.Batch) error { errsP = script(b); return nil }))
	for i := range errsP {
		m.errParity(errsC[i], errsP[i])
		if clashed[i] {
			if !errors.Is(errsP[i], uncertain.ErrDuplicateID) {
				t.Fatalf("ID-reuse op %d on %q beside its holder: err = %v, want ErrDuplicateID", i, clash[0].ID, errsP[i])
			}
		} else if errsP[i] != nil {
			t.Fatalf("ID-reuse op %d: %v", i, errsP[i])
		}
	}
	if m.db.GroupAt(g).Name != name || m.db.GroupAt(g).NullTuple() != nil {
		t.Fatalf("group %q kept its null after a full-mass reweight", name)
	}
}

// compare verifies bit-identity of every answer at the current state,
// the placement invariants, and the merge's pull bound.
func (m *mirror) compare() {
	t := m.t
	t.Helper()
	before := totalScanned(m.c)
	compareAll(t, m.c, m.db)
	checkInvariant(t, m.c)
	checkPullBound(t, m.c, before)
}

// totalScanned sums the per-shard merge pull counters.
func totalScanned(c *Cluster) uint64 {
	var n uint64
	for _, st := range c.Stats() {
		n += st.Scanned
	}
	return n
}

// checkPullBound requires the merge to have pulled, since the pull count
// before, at most Processed_k + N tuples for every query size k compareAll
// evaluated: every query of one k shares that k's memoized scan, whose
// carry walk pulls no position the scan does not process.
func checkPullBound(t *testing.T, c *Cluster, before uint64) {
	t.Helper()
	var limit uint64
	for _, k := range comparedKs(c.K()) {
		st := c.memo.Peek(k)
		if st == nil || st.View.Version() != c.Version() {
			continue // an error at this k; error parity is compareAll's job
		}
		limit += uint64(st.Info.Processed + c.Shards())
	}
	if got := totalScanned(c) - before; got > limit {
		t.Fatalf("merge pulled %d tuples on %d shards; the bound over k in %v is %d",
			got, c.Shards(), comparedKs(c.K()), limit)
	}
}

// comparedKs lists the query sizes compareAll evaluates: the configured
// K, whose memo serves the answers, and three others served by their own
// memo entries.
func comparedKs(k int) []int { return []int{k, 1, 2, k + 1} }

// compareAll checks the cluster's full answer surface bit-for-bit against
// the unsharded evaluation of db.
func compareAll(t *testing.T, c *Cluster, db *uncertain.Database) {
	t.Helper()
	if got, want := c.Version(), db.Version(); got != want {
		t.Fatalf("version: cluster %d, plain %d", got, want)
	}
	if got, want := c.NumGroups(), db.NumGroups(); got != want {
		t.Fatalf("groups: cluster %d, plain %d", got, want)
	}
	if got, want := c.NumTuples(), db.NumTuples(); got != want {
		t.Fatalf("tuples: cluster %d, plain %d", got, want)
	}
	k := c.K()
	info, errP := topkq.RankProbabilities(db, k)
	res, errC := c.AnswersThreshold(context.Background(), 0.25)
	if (errC == nil) != (errP == nil) {
		t.Fatalf("answers error parity: cluster=%v plain=%v", errC, errP)
	}
	if errP != nil {
		if errC.Error() != errP.Error() {
			t.Fatalf("answers error text: cluster=%q plain=%q", errC, errP)
		}
		return
	}
	wantUK, err := topkq.UKRanks(db, info)
	if err != nil {
		t.Fatal(err)
	}
	compareRanked(t, "UKRanks", res.UKRanks, wantUK)
	compareScored(t, "GlobalTopK", res.GlobalTopK, topkq.GlobalTopK(db, info))
	ev, err := quality.TPFromInfo(db, info)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res.Quality) != math.Float64bits(ev.S) {
		t.Fatalf("quality bits: cluster %v, plain %v", res.Quality, ev.S)
	}
	for _, th := range []float64{0, 0.25, 0.6} {
		resT, err := c.AnswersThreshold(context.Background(), th)
		if err != nil {
			t.Fatal(err)
		}
		compareScored(t, fmt.Sprintf("PTK(%g)", th), resT.PTK, topkq.PTK(db, info, th))
	}
	for _, kq := range comparedKs(k)[1:] {
		q, v, errC := c.QualityAtVersion(context.Background(), kq)
		var want *quality.Evaluation
		infoK, errP := topkq.TopKProbabilities(db, kq)
		if errP == nil {
			want, errP = quality.TPFromInfo(db, infoK)
		}
		if (errC == nil) != (errP == nil) || errC != nil && errC.Error() != errP.Error() {
			t.Fatalf("quality at k=%d error parity: cluster=%v plain=%v", kq, errC, errP)
		}
		if errC != nil {
			continue
		}
		if v != db.Version() {
			t.Fatalf("quality at k=%d: version %d, plain %d", kq, v, db.Version())
		}
		if math.Float64bits(q) != math.Float64bits(want.S) {
			t.Fatalf("quality bits at k=%d: cluster %v, plain %v", kq, q, want.S)
		}
	}
}

func compareRanked(t *testing.T, what string, got, want []topkq.RankedAnswer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s length %d != %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.H != w.H || g.ID != w.ID || g.Rank != w.Rank ||
			math.Float64bits(g.Prob) != math.Float64bits(w.Prob) ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			t.Fatalf("%s[%d]: %+v != %+v", what, i, g, w)
		}
	}
}

func compareScored(t *testing.T, what string, got, want []topkq.ScoredAnswer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s length %d != %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Rank != w.Rank ||
			math.Float64bits(g.Prob) != math.Float64bits(w.Prob) ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			t.Fatalf("%s[%d]: %+v != %+v", what, i, g, w)
		}
	}
}

// checkInvariant verifies the cluster's internal coherence: each shard's
// locals are exactly the global entries restricted to that shard, in
// global order (checked through the shard's stored stamps), and each
// shard's real rank order agrees with the global (score, stamp) key.
func checkInvariant(t *testing.T, c *Cluster) {
	t.Helper()
	next := make([]int, len(c.shards)) // next local index per shard
	for s := range next {
		next[s] = 1
	}
	if got, want := c.dir.view.Len(), len(c.dir.entries); got != want {
		t.Fatalf("placement view holds %d entries, directory %d", got, want)
	}
	for gi, e := range c.dir.entries {
		if e.local != next[e.shard] {
			t.Fatalf("entry %d on shard %d records local %d; its rank among the shard's entries is %d",
				gi, e.shard, e.local, next[e.shard])
		}
		next[e.shard]++
		if v := c.dir.view.At(gi); int(v.shard) != e.shard || int(v.local) != e.local {
			t.Fatalf("entry %d: placement view says (%d, %d), directory (%d, %d)", gi, v.shard, v.local, e.shard, e.local)
		}
		if got := c.dir.perShard[e.shard].At(e.local); int(got) != gi {
			t.Fatalf("entry %d: shard %d's map sends local %d to global %d", gi, e.shard, e.local, got)
		}
		reals := c.shards[e.shard].live().GroupAt(e.local).RealTuples()
		if len(reals) != len(e.gseqs) {
			t.Fatalf("entry %d: %d reals, %d stamps", gi, len(reals), len(e.gseqs))
		}
		for i, rt := range reals {
			if rt.Stamp() != e.gseqs[i] {
				t.Fatalf("entry %d alternative %d: shard stamp %d, directory %d", gi, i, rt.Stamp(), e.gseqs[i])
			}
		}
	}
	for s, sh := range c.shards {
		db := sh.live()
		if got := db.NumGroups() - 1; got != next[s]-1 || got != c.dir.perShard[s].Len()-1 {
			t.Fatalf("shard %d holds %d groups; directory places %d (local map %d)",
				s, got, next[s]-1, c.dir.perShard[s].Len()-1)
		}
		cur := db.CursorAt(0)
		var prev *uncertain.Tuple
		for tu := cur.Next(); tu != nil && !tu.Null; tu = cur.Next() {
			if prev != nil && !(prev.Score > tu.Score || prev.Score == tu.Score && prev.Stamp() < tu.Stamp()) {
				t.Fatalf("shard %d ranks %v (stamp %d) above %v (stamp %d)", s, prev, prev.Stamp(), tu, tu.Stamp())
			}
			prev = tu
		}
	}
}

// runScript replays steps mutations with a full comparison after every one.
func runScript(t *testing.T, seed int64, shards, k, startGroups, steps int) {
	t.Helper()
	m := newMirror(t, seed, shards, k, startGroups)
	m.compare()
	for i := 0; i < steps; i++ {
		m.step()
		m.compare()
	}
}

// TestShardDifferentialQuick is the always-on slice of the battery.
func TestShardDifferentialQuick(t *testing.T) {
	for _, shards := range []int{1, 2, 3} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			runScript(t, int64(100+shards), shards, 4, 30, 60)
		})
	}
}

// TestShardDifferentialBattery is the full cross-shard bit-identity
// battery: N in {1, 2, 4, 8}, 200-step scripts, every answer compared
// after every step. Skipped under -short (CI runs it under -race).
func TestShardDifferentialBattery(t *testing.T) {
	if testing.Short() {
		t.Skip("differential battery: long; run without -short")
	}
	for _, shards := range []int{1, 2, 4, 8} {
		for seed := int64(1); seed <= 2; seed++ {
			shards, seed := shards, seed
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				runScript(t, seed, shards, 5, 40, 200)
			})
		}
	}
}

// TestFromDatabase checks that a cluster lifted from a live unsharded
// database answers bit-identically, and keeps doing so under mutation.
func TestFromDatabase(t *testing.T) {
	db := uncertain.New()
	rng := rand.New(rand.NewSource(7))
	idc := 0
	for g := 0; g < 25; g++ {
		alts := 1 + rng.Intn(3)
		ts := make([]uncertain.Tuple, alts)
		budget := 1.0
		for a := range ts {
			p := budget * (0.2 + 0.6*rng.Float64()) / float64(alts-a)
			budget -= p
			idc++
			ts[a] = uncertain.Tuple{ID: fmt.Sprintf("f%d", idc), Attrs: []float64{float64(rng.Intn(6))}, Prob: p}
		}
		if err := db.AddXTuple(fmt.Sprintf("fg%d", g), ts...); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Build(uncertain.ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		c, err := FromDatabase(db, Config{Shards: shards, K: 3, Threshold: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		compareAll(t, c, db)
		checkInvariant(t, c)
		// Mutate both sides and re-compare: stamps must stay aligned.
		ts := []uncertain.Tuple{{ID: fmt.Sprintf("fx%d", shards), Attrs: []float64{3}, Prob: 0.5}}
		if err := db.InsertXTuple(fmt.Sprintf("fgx%d", shards), ts...); err != nil {
			t.Fatal(err)
		}
		if err := c.Batch(func(b *Batch) error { return b.InsertXTuple(fmt.Sprintf("fgx%d", shards), ts...) }); err != nil {
			t.Fatal(err)
		}
		compareAll(t, c, db)
		checkInvariant(t, c)
		if shards > 1 {
			checkInsertOrder(t, c, db)
		}
	}

	// A source that uses the sentinel's group name or null ID is refused.
	reserved := map[string]func(db *uncertain.Database) error{
		"sentinel name": func(db *uncertain.Database) error {
			return db.AddXTuple(sentinelName, uncertain.Tuple{ID: "r.a", Attrs: []float64{1}, Prob: 0.5})
		},
		"absent sentinel": func(db *uncertain.Database) error { return db.AddAbsentXTuple(sentinelName) },
		"sentinel null ID": func(db *uncertain.Database) error {
			return db.AddXTuple("r", uncertain.Tuple{ID: sentinelNullID, Attrs: []float64{1}, Prob: 0.5})
		},
	}
	for what, add := range reserved {
		db := uncertain.New()
		if err := db.AddXTuple("ok", uncertain.Tuple{ID: "ok.a", Attrs: []float64{2}, Prob: 1}); err != nil {
			t.Fatal(err)
		}
		if err := add(db); err != nil {
			t.Fatal(err)
		}
		if err := db.Build(uncertain.ByFirstAttr); err != nil {
			t.Fatal(err)
		}
		if _, err := FromDatabase(db, Config{Shards: 2, K: 1}); !errors.Is(err, ErrReservedName) {
			t.Fatalf("%s: FromDatabase err = %v, want ErrReservedName", what, err)
		}
	}
}

// checkInsertOrder pins the order of the insert check the router shares
// with the unsharded insert (uncertain.CheckInsert): validation before
// duplicates, the materialized null included, with the unsharded error
// text, whichever shard holds the clashing ID. It leaves c and db equal.
func checkInsertOrder(t *testing.T, c *Cluster, db *uncertain.Database) {
	t.Helper()
	m := &mirror{t: t, c: c, db: db}
	n := c.Shards()
	insert := func(what string, want error, name string, ts ...uncertain.Tuple) {
		t.Helper()
		errC := c.Batch(func(b *Batch) error { return b.InsertXTuple(name, ts...) })
		m.errParity(errC, db.InsertXTuple(name, ts...))
		if want != nil && !errors.Is(errC, want) {
			t.Fatalf("N=%d, %s: err = %v, want %v", n, what, errC, want)
		}
	}
	// An ID live on a shard other than the one the next insert would
	// land on.
	var taken string
	for _, e := range c.dir.entries {
		if reals := c.shards[e.shard].live().GroupAt(e.local).RealTuples(); e.shard != place(c.nextGseq, n) && len(reals) > 0 {
			taken = reals[0].ID
			break
		}
	}
	if taken == "" {
		t.Fatalf("N=%d: no real alternative off the next insert's shard", n)
	}
	fresh := fmt.Sprintf("fresh%d", n)
	insert("out-of-range probability and a taken ID", uncertain.ErrProbOutOfRange, "bad",
		uncertain.Tuple{ID: taken, Attrs: []float64{3}, Prob: 1.5})
	insert("NaN score and a taken ID", uncertain.ErrBadScore, "bad",
		uncertain.Tuple{ID: fresh, Attrs: []float64{math.NaN()}, Prob: 0.5},
		uncertain.Tuple{ID: taken, Attrs: []float64{3}, Prob: 0.2})
	insert("mass above one and a taken ID", uncertain.ErrMassExceedsOne, "bad",
		uncertain.Tuple{ID: taken, Attrs: []float64{3}, Prob: 0.7},
		uncertain.Tuple{ID: fresh, Attrs: []float64{2}, Prob: 0.7})

	// A plain alternative takes the ID null:<late>; fillers move the next
	// insert off the holder's shard; then late's partial mass would
	// materialize null:<late> beside it.
	late := fmt.Sprintf("late%d", n)
	insert("holder", nil, fmt.Sprintf("holder%d", n), uncertain.Tuple{ID: "null:" + late, Attrs: []float64{4}, Prob: 0.5})
	held := c.dir.entries[len(c.dir.entries)-1].shard
	for i := 0; place(c.nextGseq, n) == held; i++ {
		insert("filler", nil, fmt.Sprintf("filler%d.%d", n, i), uncertain.Tuple{ID: fmt.Sprintf("fill%d.%d", n, i), Attrs: []float64{1}, Prob: 1})
	}
	insert("insert materializing a held null", uncertain.ErrDuplicateID, late,
		uncertain.Tuple{ID: late + ".a", Attrs: []float64{5}, Prob: 0.6})
	m.errParity(c.Batch(func(b *Batch) error { return b.InsertAbsentXTuple(late) }), db.InsertAbsentXTuple(late))
	compareAll(t, c, db)
	checkInvariant(t, c)
}

// TestPlaceSpreadsTwoStampArrivals pins that place spreads a run of
// consecutive 2-alternative arrivals (first stamps 0, 2, 4, ...) over
// every shard, roughly evenly. A plain gseq % N would only ever feed the
// even shards.
func TestPlaceSpreadsTwoStampArrivals(t *testing.T) {
	const arrivals = 4096
	for _, n := range []int{2, 4, 8} {
		counts := make([]int, n)
		for a := 0; a < arrivals; a++ {
			counts[place(2*a, n)]++
		}
		mean := arrivals / n
		for s, got := range counts {
			if got < mean/2 || got > mean*3/2 {
				t.Fatalf("N=%d: shard %d got %d of %d arrivals (mean %d): %v", n, s, got, arrivals, mean, counts)
			}
		}
	}
}
