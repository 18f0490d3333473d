// Command topkcleand is the HTTP query daemon: it serves probabilistic
// top-k queries, quality scores, and budgeted-cleaning planning/execution
// over a registry of named uncertain databases, answering queries from
// lock-free snapshot epochs while mutations stream in concurrently. With
// -store, every database is durable: commits are journaled to a
// write-ahead log, checkpointed periodically, and recovered bit-identically
// on restart (see PERSISTENCE.md).
//
// Usage:
//
//	topkcleand -data data.csv -k 15 -threshold 0.1 -addr :8337
//	topkcleand -synthetic 1000 -k 15              # no dataset needed
//	topkcleand -synthetic 1000 -store ./dbs       # durable, multi-tenant
//
// Endpoints (see SERVING.md for the full API reference):
//
//	GET    /dbs                    list databases
//	POST   /dbs                    create a database (inline data or synthetic)
//	DELETE /dbs/{name}             delete a database (and its journal)
//	GET    /dbs/{name}/topk        query answers (U-kRanks, PT-k, Global-topk) + quality
//	GET    /dbs/{name}/quality     PWS-quality, optionally at an explicit k
//	POST   /dbs/{name}/plan        plan budgeted cleaning (dp | greedy | randp | randu)
//	POST   /dbs/{name}/apply       plan (or take a plan) and execute it on the live database
//	POST   /dbs/{name}/mutate      apply a batch of mutations as one commit
//	GET    /dbs/{name}/stats       version, sizes, durability, coalescing counters
//	GET    /healthz                liveness
//
// The legacy single-database routes (/topk, /quality, /plan, /apply,
// /mutate, /stats) alias to the database named "default", which the
// daemon creates from -data/-synthetic on first start (or recovers from
// the store on later ones).
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// get up to -drain to finish while new connections are refused, then
// every durable database is flushed (final checkpoint + fsync).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	topkclean "github.com/probdb/topkclean"
	"github.com/probdb/topkclean/internal/dataio"
	"github.com/probdb/topkclean/internal/gen"
	"github.com/probdb/topkclean/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "topkcleand: %v\n", err)
		os.Exit(1)
	}
}

// run wires flags, data, the tenant registry, and the HTTP server; it
// returns when ctx is cancelled (after a graceful drain and a store
// flush) or the listener fails.
func run(ctx context.Context, args []string, logw io.Writer) error {
	fs := flag.NewFlagSet("topkcleand", flag.ContinueOnError)
	fs.SetOutput(logw)
	var (
		addr      = fs.String("addr", ":8337", "listen address")
		data      = fs.String("data", "", "dataset file for the default database (.csv or .json); empty generates a synthetic workload")
		synthetic = fs.Int("synthetic", 1000, "x-tuples in generated synthetic workloads (default database and /dbs creations)")
		k         = fs.Int("k", 15, "default query size k")
		threshold = fs.Float64("threshold", 0.1, "default PT-k probability threshold")
		seed      = fs.Int64("seed", 42, "random seed (planners, simulated cleaning agent)")
		drain     = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
		storeDir  = fs.String("store", "", "persistence root: one journaled directory per database; empty serves from memory only")
		follower  = fs.String("follower", "", "follow a leader's -store root as a read-only replica (mutually exclusive with -store)")
		backend   = fs.String("store-backend", "file", "registered store driver for -store/-follower ("+strings.Join(store.Drivers(), " | ")+")")
		polly     = fs.Duration("replica-poll", 25*time.Millisecond, "journal poll interval in -follower mode")
		fsync     = fs.Bool("fsync", true, "fsync the journal after every commit (with -store)")
		ckptEvery = fs.Int("checkpoint-every", 256, "journal records between automatic checkpoints (with -store)")
		shards    = fs.Int("shards", 1, "hash-place each database's x-tuples across N shards behind a merge coordinator (1 = unsharded)")
		rescan    = fs.Duration("follower-rescan", time.Second, "how often a follower rescans the store root for new databases")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := log.New(logw, "topkcleand: ", log.LstdFlags)
	if *follower != "" && *storeDir != "" {
		return fmt.Errorf("-follower and -store are mutually exclusive: a follower never writes the store it tails")
	}
	if _, ok := store.ByName(*backend); !ok {
		return fmt.Errorf("unknown -store-backend %q (registered: %s)", *backend, strings.Join(store.Drivers(), ", "))
	}
	if *follower != "" && *backend != "file" {
		return fmt.Errorf("-follower requires -store-backend file: following needs a store another process can share")
	}
	if *shards < 1 {
		return fmt.Errorf("-shards %d: need at least 1", *shards)
	}
	if *follower != "" && *shards != 1 {
		return fmt.Errorf("-follower and -shards are mutually exclusive: sharded databases cannot be followed yet")
	}

	root := *storeDir
	if *follower != "" {
		root = *follower
	}
	srv := newServer(serverConfig{
		k:               *k,
		threshold:       *threshold,
		seed:            *seed,
		synthetic:       *synthetic,
		storeRoot:       root,
		storeBackend:    *backend,
		fsync:           *fsync,
		checkpointEvery: *ckptEvery,
		follower:        *follower != "",
		replicaPoll:     *polly,
		shards:          *shards,
	})
	if *follower != "" {
		// Follower startup: open every persisted database read-only, sync
		// to the journal tail, start tailing. Nothing is created — the
		// leader owns the data; this daemon only serves it. The rescan loop
		// then picks up databases the leader creates later.
		if err := srv.recoverFollowers(logger.Printf); err != nil {
			return err
		}
		go srv.followerRescanLoop(ctx, *rescan, logger.Printf)
	} else {
		// The file backend persists across restarts; recover what it holds.
		// (The mem backend is process-local: a fresh daemon has nothing to
		// recover, so the scan would only misread unrelated directories.)
		if *storeDir != "" && *backend == "file" {
			if err := srv.recoverTenants(logger.Printf); err != nil {
				return err
			}
		}
		if _, err := srv.tenant(defaultDB); err != nil {
			db, source, err := loadDatabase(*data, *synthetic, *seed)
			if err != nil {
				return err
			}
			if _, err := srv.addTenant(defaultDB, db, tenantConfig{}); err != nil {
				if errors.Is(err, store.ErrExists) {
					// recoverTenants skipped it (and said why above): refuse to
					// overwrite persisted data with a fresh database.
					return fmt.Errorf("a %q database exists under -store but failed to recover (see log above): %w", defaultDB, err)
				}
				return err
			}
			logger.Printf("created %s database from %s (%d x-tuples, %d tuples)",
				defaultDB, source, db.NumGroups(), db.NumTuples())
		}
	}
	// Warm the default database's memoized pass so the first request is
	// not the slow one; other tenants warm on first query. A follower may
	// legitimately have no default database — warm nothing then.
	if def, err := srv.tenant(defaultDB); err == nil {
		if _, _, err := def.answers(ctx, def.Threshold()); err != nil {
			return err
		}
	} else if *follower == "" {
		return err
	}
	durability := "ephemeral (no -store)"
	switch {
	case *follower != "":
		durability = fmt.Sprintf("read-only follower of %s (poll=%s)", *follower, *polly)
	case *storeDir != "":
		durability = fmt.Sprintf("durable under %s (backend=%s, fsync=%v, checkpoint-every=%d)", *storeDir, *backend, *fsync, *ckptEvery)
	}
	logger.Printf("serving %d database(s) at %s, default k=%d threshold=%g, %s",
		len(srv.tenantList()), *addr, *k, *threshold, durability)

	hsrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hsrv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Printf("shutting down (drain %s)", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hsrv.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	srv.closeStores(logger.Printf)
	logger.Printf("bye")
	return nil
}

// newSynthetic generates the paper's synthetic workload (ByFirstAttr
// ranking, like every database this daemon serves).
func newSynthetic(xtuples int, seed int64) (*topkclean.Database, error) {
	return gen.SyntheticSized(xtuples, seed)
}

// loadDatabase reads -data (CSV or JSON by extension) or generates the
// synthetic workload of the paper's evaluation section.
func loadDatabase(path string, synthetic int, seed int64) (*topkclean.Database, string, error) {
	if path == "" {
		db, err := newSynthetic(synthetic, seed)
		if err != nil {
			return nil, "", err
		}
		return db, fmt.Sprintf("synthetic(%d)", synthetic), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	var db *topkclean.Database
	switch strings.ToLower(filepath.Ext(path)) {
	case ".json":
		db, err = dataio.ReadJSON(f, topkclean.ByFirstAttr)
	default:
		db, err = dataio.ReadCSV(f, topkclean.ByFirstAttr)
	}
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	return db, path, nil
}
