// Command bondd is the BOND server daemon: it holds many named
// collections in one process and serves concurrent clients over an HTTP
// JSON API.
//
// Usage:
//
//	bondd -addr :8666 -data ./bondd-data
//	bondd -data ./bondd-data -maintenance-interval 10s -compact-ratio 0.25
//
// Endpoints (see docs/ARCHITECTURE.md for the full API walkthrough):
//
//	PUT    /collections/{name}               create ({"dims": D, "segment_size": S?})
//	GET    /collections                      list
//	GET    /collections/{name}               per-collection stats + segment synopses
//	DELETE /collections/{name}               drop
//	POST   /collections/{name}/vectors       ingest one {"vector": […]} or a batch {"vectors": [[…],…]}
//	GET    /collections/{name}/vectors/{id}  read one vector back
//	DELETE /collections/{name}/vectors/{id}  tombstone one vector
//	POST   /collections/{name}/recluster     rewrite sealed segments cluster-contiguously ({"k": K?, "seed": S?})
//	POST   /collections/{name}/query         one QuerySpec in, top-k out
//	POST   /collections/{name}/query/batch   {"queries": […]} through Collection.QueryBatch
//	GET    /collections/{name}/explain       EXPLAIN by example (?id=17&k=10&strategy=auto); POST takes a spec
//	GET    /healthz                          liveness
//	GET    /readyz                           readiness (data dir writable, WALs appendable)
//	GET    /stats                            server + per-collection + plan-pool statistics
//
// # Coordinator mode
//
// With -coordinator, bondd serves the same HTTP API over a static
// topology of shard bondd processes instead of local collections:
//
//	bondd -coordinator -topology topology.json -degrade partial
//
// The topology file maps shard ids to base URLs ({"shards": [{"id": 0,
// "url": "http://host:8666"}, …]}). Ingest and deletes hash-route by
// vector id to the owning shard; queries fan out to every shard and
// exact-merge, so healthy-cluster answers are byte-identical to a
// single node holding all the data. Every shard call runs inside a
// robustness envelope (deadline carving, retries with backoff, hedged
// requests, per-shard circuit breakers fed by a background prober);
// -degrade picks what a missed shard costs: strict = clean error,
// partial = top-k over the survivors marked "partial": true.
//
// # Replication
//
// With -follow, bondd runs as a read-only replica of another bondd:
//
//	bondd -addr :8667 -data ./replica-data -follow http://leader:8666
//
// The replica bootstraps each collection from a leader checkpoint
// snapshot, then tails the leader's write-ahead log (GET /wal),
// appending the same frames to its own log and applying them — so its
// on-disk state is byte-identical to the leader at every applied
// offset. Mutations against a replica answer 409 until POST /promote
// turns it into an ordinary leader; promotion refuses (409) if the
// replica ever diverged. GET /replstatus reports lag, and a coordinator
// whose topology lists the replica promotes it automatically when the
// primary's breaker opens (-promote-replicas); -read-replicas also
// steers idempotent reads to caught-up replicas.
//
// # Durability
//
// Collections live under -data as <name>.bond durable directories: an
// incremental checkpoint (manifest + write-once sealed-segment files +
// active-segment checkpoint) plus a write-ahead log of every mutation
// since. Every ingest and delete is WAL-logged before its 2xx goes out;
// with the default -fsync=always the record is also fsynced first, so a
// crash — SIGKILL, power loss — never loses an acknowledged write.
// -fsync=interval trades the per-write fsync for a periodic one (bounded
// loss on power failure, none on process crash); -fsync=never leaves
// flushing to the OS. Recovery replays the WAL tail on top of the last
// checkpoint and always yields a consistent prefix of the acknowledged
// history.
//
// The maintenance loop compacts collections whose tombstone ratio
// crosses -compact-ratio, re-clusters collections whose sealed synopsis
// spread crosses -recluster-spread (rewriting sealed segments so each
// holds one k-means cluster — tight synopses restore segment skipping
// however shuffled the ingest order was), and checkpoints any collection
// whose WAL has outgrown -wal-max-bytes, truncating the log —
// checkpoints bound restart replay time, not durability. A <name>.bond
// snapshot file of an earlier release, or a directory in an older
// layout, answers 409 older_layout until an operator converts it with
// the earlier release that reads it (its `bondgen -import`, or a
// Checkpoint).
// SIGINT/SIGTERM drain in-flight requests, checkpoint, and close every
// log.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bond"
	"bond/internal/server"
	"bond/internal/shard"
)

func main() {
	addr := flag.String("addr", ":8666", "HTTP listen address")
	dataDir := flag.String("data", "bondd-data", "data directory holding <name>.bond collection files")
	segSize := flag.Int("segment-size", 0, "seal threshold for new collections (0 = library default)")
	maxInFlight := flag.Int("max-inflight", 0, "bound on concurrently executing queries (0 = 4×GOMAXPROCS)")
	maintEvery := flag.Duration("maintenance-interval", 30*time.Second, "background compaction/snapshot period (0 disables)")
	compactRatio := flag.Float64("compact-ratio", 0.25, "tombstone ratio that triggers compaction (0 selects the default 0.25; negative disables)")
	reclusterSpread := flag.Float64("recluster-spread", 0.6, "sealed synopsis spread that triggers background re-clustering (0 selects the default 0.6; negative disables)")
	maxBody := flag.Int64("max-body-bytes", 0, "request body size cap in bytes (0 = 64 MiB)")
	fsync := flag.String("fsync", "always", "WAL flush policy: always (no acknowledged write ever lost), interval, or never")
	walMax := flag.Int64("wal-max-bytes", 0, "per-collection WAL size that triggers a maintenance checkpoint (0 = 16 MiB)")
	shutdownWait := flag.Duration("shutdown-timeout", 10*time.Second, "grace period for in-flight requests on shutdown")
	useMmap := flag.Bool("mmap", true, "memory-map sealed segment files instead of loading them onto the heap (BOND_NO_MMAP=1 also disables)")
	quiet := flag.Bool("quiet", false, "suppress per-request and maintenance logging")
	follow := flag.String("follow", "", "run as a replica tailing the leader bondd at this base URL (read-only until promoted via POST /promote)")
	followInterval := flag.Duration("follow-interval", 500*time.Millisecond, "replica: leader sync period")
	coordinator := flag.Bool("coordinator", false, "serve as a sharding coordinator over -topology instead of local collections")
	topologyPath := flag.String("topology", "", "coordinator: JSON topology file mapping shard ids to base URLs")
	degrade := flag.String("degrade", "strict", "coordinator: degradation policy when a shard stays missing: strict or partial")
	shardRetries := flag.Int("shard-retries", 3, "coordinator: attempts per shard call, first try included")
	retryBackoff := flag.Duration("retry-backoff", 20*time.Millisecond, "coordinator: base backoff between shard retries (exponential, jittered)")
	hedgeAfter := flag.Duration("hedge-after", 0, "coordinator: hedge a second shard request after this much silence (0 disables)")
	breakerThreshold := flag.Int("breaker-threshold", 5, "coordinator: consecutive failures that open a shard's circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 2*time.Second, "coordinator: how long an open breaker fast-fails before a trial call")
	probeInterval := flag.Duration("probe-interval", time.Second, "coordinator: background shard health-probe period (0 disables)")
	queryTimeout := flag.Duration("query-timeout", 5*time.Second, "coordinator: fan-out budget for requests without timeout_ms")
	promoteReplicas := flag.Bool("promote-replicas", true, "coordinator: fail a dead shard over to a caught-up replica from the topology's replicas list")
	readReplicas := flag.Bool("read-replicas", false, "coordinator: steer idempotent reads to caught-up replicas")
	flag.Parse()

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	if *coordinator {
		runCoordinator(coordinatorFlags{
			addr:             *addr,
			topologyPath:     *topologyPath,
			degrade:          *degrade,
			shardRetries:     *shardRetries,
			retryBackoff:     *retryBackoff,
			hedgeAfter:       *hedgeAfter,
			breakerThreshold: *breakerThreshold,
			breakerCooldown:  *breakerCooldown,
			probeInterval:    *probeInterval,
			queryTimeout:     *queryTimeout,
			promoteReplicas:  *promoteReplicas,
			readReplicas:     *readReplicas,
			shutdownWait:     *shutdownWait,
			logf:             logf,
		})
		return
	}
	fsyncPolicy, err := bond.ParseFsync(*fsync)
	if err != nil {
		fatal(err)
	}
	srv, err := server.New(server.Config{
		Dir:                 *dataDir,
		SegmentSize:         *segSize,
		MaxInFlight:         *maxInFlight,
		CompactRatio:        *compactRatio,
		ReclusterSpread:     *reclusterSpread,
		MaxBodyBytes:        *maxBody,
		Fsync:               fsyncPolicy,
		WALMaxBytes:         *walMax,
		MaintenanceInterval: *maintEvery,
		DisableMmap:         !*useMmap,
		FollowURL:           *follow,
		FollowInterval:      *followInterval,
		Logf:                logf,
	})
	if err != nil {
		fatal(err)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		logf("bondd: serving on %s from %s", *addr, *dataDir)
		errc <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		// Listen failed before any signal; nothing to drain.
		fatal(err)
	case <-ctx.Done():
	}

	logf("bondd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownWait)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logf("bondd: drain: %v", err)
	}
	if err := srv.Close(); err != nil {
		fatal(fmt.Errorf("flush on shutdown: %w", err))
	}
	logf("bondd: flushed, bye")
}

type coordinatorFlags struct {
	addr             string
	topologyPath     string
	degrade          string
	shardRetries     int
	retryBackoff     time.Duration
	hedgeAfter       time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration
	probeInterval    time.Duration
	queryTimeout     time.Duration
	promoteReplicas  bool
	readReplicas     bool
	shutdownWait     time.Duration
	logf             func(string, ...any)
}

// runCoordinator serves coordinator mode: same HTTP surface, but every
// request is fanned out to / routed across the shards in -topology.
func runCoordinator(f coordinatorFlags) {
	if f.topologyPath == "" {
		fatal(errors.New("-coordinator requires -topology"))
	}
	topo, err := shard.LoadTopology(f.topologyPath)
	if err != nil {
		fatal(err)
	}
	policy, err := shard.ParsePolicy(f.degrade)
	if err != nil {
		fatal(err)
	}
	co, err := shard.NewCoordinator(shard.Config{
		Topology: topo,
		Envelope: shard.Envelope{
			MaxAttempts: f.shardRetries,
			BackoffBase: f.retryBackoff,
			HedgeAfter:  f.hedgeAfter,
		},
		BreakerThreshold: f.breakerThreshold,
		BreakerCooldown:  f.breakerCooldown,
		ProbeInterval:    f.probeInterval,
		DefaultTimeout:   f.queryTimeout,
		DegradePolicy:    policy,
		PromoteReplicas:  f.promoteReplicas,
		ReadReplicas:     f.readReplicas,
		Logf:             f.logf,
	})
	if err != nil {
		fatal(err)
	}

	httpSrv := &http.Server{
		Addr:              f.addr,
		Handler:           co.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		f.logf("bondd: coordinating %d shards on %s (policy %s)", topo.N(), f.addr, policy)
		errc <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	f.logf("bondd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), f.shutdownWait)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		f.logf("bondd: drain: %v", err)
	}
	_ = co.Close()
	f.logf("bondd: bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bondd:", err)
	os.Exit(1)
}
