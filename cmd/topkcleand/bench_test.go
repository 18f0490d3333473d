package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	topkclean "github.com/probdb/topkclean"
	"github.com/probdb/topkclean/internal/gen"
	"github.com/probdb/topkclean/internal/shard"
)

// startWriter streams batched mutations at the live database — one batch
// commit roughly every 2ms (~500 epochs/s, far above any realistic update
// stream) until the returned stop function is called: each batch reweights
// a few x-tuples (random ranks, so watermarks land high as well as low)
// and periodically inserts a fresh x-tuple — the serving workload the
// snapshot layer exists for.
func startWriter(db *topkclean.Database) (stop func() (commits int)) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	commits := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			err := db.Batch(func(b *topkclean.Batch) error {
				for j := 0; j < 4; j++ {
					g := rng.Intn(db.NumGroups())
					real := db.Groups()[g].RealTuples()
					if len(real) == 0 {
						continue
					}
					probs := make([]float64, len(real))
					for p := range probs {
						probs[p] = (0.2 + 0.6*rng.Float64()) / float64(len(probs))
					}
					if err := b.Reweight(g, probs); err != nil {
						return err
					}
				}
				if i%16 == 0 {
					return b.InsertXTuple(fmt.Sprintf("w%d", i),
						topkclean.Tuple{ID: fmt.Sprintf("w%d.a", i), Attrs: []float64{rng.Float64() * 100}, Prob: 0.5})
				}
				return nil
			})
			if err != nil {
				panic(err)
			}
			commits++
		}
	}()
	return func() int {
		close(done)
		wg.Wait()
		return commits
	}
}

// benchServe measures /topk throughput with parallel HTTP clients,
// optionally while a background writer streams batched mutations.
func benchServe(b *testing.B, mutating bool) {
	db, err := gen.SyntheticSized(1500, 7)
	if err != nil {
		b.Fatal(err)
	}
	srv := newServer(serverConfig{k: 15, threshold: 0.1, seed: 42, synthetic: 100})
	def, err := srv.addTenant(defaultDB, db, tenantConfig{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	url := ts.URL + "/topk"

	// Warm the engine and the HTTP path.
	if resp, err := http.Get(url); err != nil {
		b.Fatal(err)
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	var commits int
	if mutating {
		stop := startWriter(db)
		defer func() {
			commits = stop()
			b.ReportMetric(float64(commits)/b.Elapsed().Seconds(), "commits/s")
		}()
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{}
		for pb.Next() {
			resp, err := client.Get(url)
			if err != nil {
				b.Error(err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
	b.ReportMetric(float64(def.topk.coalesced.Load()), "coalesced")
}

// BenchmarkServeUnderMutation records serving throughput for the acceptance
// comparison: reader qps with a background writer streaming batched
// mutations (mutating) must stay within 2x of the mutation-free baseline
// (idle). CI records both series in BENCH_PR9.json.
func BenchmarkServeUnderMutation(b *testing.B) {
	b.Run("idle", func(b *testing.B) { benchServe(b, false) })
	b.Run("mutating", func(b *testing.B) { benchServe(b, true) })
}

// BenchmarkTopKRepeatedVersion is the /topk hit path: one client sends
// serial GETs at one threshold while no commit lands, over a 10^4-x-tuple
// synthetic database (k=15, threshold 0.02 — read_hot's dominant query).
// Every request after the first is answered from the tenant's body table,
// so allocs/op and B/op count the HTTP round trip (client side included)
// with no engine call and no JSON encoding in it.
func BenchmarkTopKRepeatedVersion(b *testing.B) {
	db, err := gen.SyntheticSized(10000, 42)
	if err != nil {
		b.Fatal(err)
	}
	srv := newServer(serverConfig{k: 15, threshold: 0.1, seed: 42, synthetic: 100})
	def, err := srv.addTenant(defaultDB, db, tenantConfig{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	url := ts.URL + "/topk?threshold=0.02"
	client := &http.Client{}
	get := func() {
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	get() // the miss that computes and keeps the body
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get()
	}
	b.StopTimer()
	b.ReportMetric(float64(def.topk.cached.Load())/float64(b.N), "hits/op")
}

// startShardWriter streams insert commits at a sharded cluster — the
// router path under load — until stopped. Reweights need group handles
// the cluster does not expose, so the sharded writer works in fresh
// x-tuples at random scores (placement spreads them over every shard).
func startShardWriter(c *shard.Cluster) (stop func() (commits int)) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	commits := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			err := c.Batch(func(b *shard.Batch) error {
				return b.InsertXTuple(fmt.Sprintf("w%d", i), topkclean.Tuple{
					ID: fmt.Sprintf("w%d.a", i), Attrs: []float64{rng.Float64() * 100}, Prob: 0.5})
			})
			if err != nil {
				panic(err)
			}
			commits++
		}
	}()
	return func() int {
		close(done)
		wg.Wait()
		return commits
	}
}

// benchServeSharded is benchServe over a sharded default database:
// /topk throughput through the merge coordinator, optionally with a
// background writer streaming commits through the router.
func benchServeSharded(b *testing.B, shards int, mutating bool) {
	db, err := gen.SyntheticSized(1500, 7)
	if err != nil {
		b.Fatal(err)
	}
	srv := newServer(serverConfig{k: 15, threshold: 0.1, seed: 42, synthetic: 100, shards: shards})
	def, err := srv.addTenant(defaultDB, db, tenantConfig{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	url := ts.URL + "/topk"

	if resp, err := http.Get(url); err != nil {
		b.Fatal(err)
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	var commits int
	if mutating {
		stop := startShardWriter(def.layer.(*clusterLayer).Cluster)
		defer func() {
			commits = stop()
			b.ReportMetric(float64(commits)/b.Elapsed().Seconds(), "commits/s")
		}()
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{}
		for pb.Next() {
			resp, err := client.Get(url)
			if err != nil {
				b.Error(err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
	b.ReportMetric(float64(def.topk.coalesced.Load()), "coalesced")
}

// BenchmarkShardedServeUnderMutation is the sharded counterpart of
// BenchmarkServeUnderMutation: reader qps over a 4-shard coordinator with
// and without a concurrent commit stream. CI records both series in
// BENCH_PR10.json next to the single-cluster mutate/requery numbers.
func BenchmarkShardedServeUnderMutation(b *testing.B) {
	b.Run("shards=4/idle", func(b *testing.B) { benchServeSharded(b, 4, false) })
	b.Run("shards=4/mutating", func(b *testing.B) { benchServeSharded(b, 4, true) })
}
