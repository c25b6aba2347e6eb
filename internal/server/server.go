package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"bond"
	"bond/internal/api"
	"bond/internal/vstore"
)

// Config configures a Server. The zero value serves from "./data" with
// library defaults.
type Config struct {
	// Dir is the catalog's data directory (default "data").
	Dir string
	// SegmentSize is the default seal threshold for new collections
	// (0 = the library default).
	SegmentSize int
	// MaxInFlight bounds concurrently executing query requests (single
	// queries, batches, and explains each hold one slot). Requests beyond
	// the bound wait; a request whose context ends while waiting is
	// rejected with 503. 0 defaults to 4×GOMAXPROCS — enough to keep the
	// worker pools busy without letting a flood of slow queries pile onto
	// every scratch pool at once.
	MaxInFlight int
	// CompactRatio is the tombstone ratio at which the maintenance loop
	// compacts a collection (0 = 0.25; negative disables compaction).
	CompactRatio float64
	// ReclusterSpread is the sealed synopsis-spread at which the
	// maintenance loop re-clusters a collection into cluster-contiguous
	// segments (0 = 0.6; negative disables re-clustering). Spread ≈1 means
	// segments span the whole data extent — synopsis skipping cannot fire
	// — so a recluster restores the cluster-contiguous layout queries are
	// fast on, whatever order the data arrived in.
	ReclusterSpread float64
	// MaxBodyBytes caps a request body; larger requests fail with 400
	// before anything is buffered (0 = 64 MiB). Admission control only
	// bounds executing queries, so this is what keeps one oversized
	// ingest from ballooning memory.
	MaxBodyBytes int64
	// Fsync is the WAL flush policy every collection opens with. The zero
	// value is bond.FsyncAlways: a 2xx on an ingest or delete means the
	// mutation is on stable storage.
	Fsync bond.FsyncPolicy
	// WALMaxBytes is the per-collection WAL size at which the maintenance
	// loop writes an incremental checkpoint and truncates the log
	// (0 = 16 MiB; it bounds recovery replay time, not durability).
	WALMaxBytes int64
	// MaintenanceInterval is the period of the background maintenance
	// loop. 0 disables the loop; RunMaintenance can still be driven
	// manually (bondd always sets it).
	MaintenanceInterval time.Duration
	// DisableMmap opens every collection with heap-decoded segments
	// instead of memory-mapping sealed v2 segment files (the BOND_NO_MMAP
	// environment variable forces the same).
	DisableMmap bool
	// Logf receives one line per maintenance action and per served error
	// (nil = silent).
	Logf func(format string, args ...any)
	// FollowURL, when set, starts the server as a read-only replica of
	// the leader at that base URL: every leader collection is
	// bootstrapped from a snapshot and tailed through the WAL stream,
	// client mutations are fenced with 409 read_only_replica, and
	// POST /promote flips the node into a writable leader.
	FollowURL string
	// FollowInterval is the tail poll period (0 = 500ms; negative
	// disables the background loop — tests drive SyncReplicaOnce).
	FollowInterval time.Duration
	// FollowClient overrides the HTTP client the follower tails the
	// leader with (nil = a 30s-timeout client).
	FollowClient *http.Client
}

// Server is the bondd serving layer: the catalog-backed api.Backend, the
// replication endpoints, and the background maintenance loop. Create one
// with New, mount Handler, and Close on the way out to flush unpersisted
// writes.
type Server struct {
	cfg Config
	cat *Catalog
	mux *http.ServeMux

	sem      chan struct{} // in-flight query admission; one slot per query/batch/explain
	inflight atomic.Int64
	start    time.Time

	// repl is the follower-mode tailer; nil unless Config.FollowURL was
	// set. It outlives promotion (the promoted flag and gauges keep
	// serving /replstatus).
	repl *replicator

	// Maintenance counters, exposed on /stats.
	maintRuns   atomic.Int64
	compactions atomic.Int64
	reclusters  atomic.Int64
	checkpoints atomic.Int64

	stop chan struct{}
	done chan struct{}
}

// New opens the catalog and, when the config asks for it, starts the
// maintenance loop.
func New(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		cfg.Dir = "data"
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if cfg.CompactRatio == 0 {
		cfg.CompactRatio = 0.25
	}
	if cfg.ReclusterSpread == 0 {
		cfg.ReclusterSpread = 0.6
	}
	if cfg.WALMaxBytes <= 0 {
		cfg.WALMaxBytes = 16 << 20
	}
	cat, err := NewCatalog(cfg.Dir, cfg.SegmentSize, cfg.Fsync, cfg.DisableMmap)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		cat:   cat,
		sem:   make(chan struct{}, cfg.MaxInFlight),
		start: time.Now(),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	s.mux = api.NewMux(s, cfg.MaxBodyBytes, func(format string, args ...any) {
		s.logf("bondd: "+format, args...)
	})
	// Replication: any node serves its WAL and snapshots (leader side);
	// promote/replstatus are meaningful on followers.
	s.mux.HandleFunc("GET /collections/{name}/wal", s.handleWALChunk)
	s.mux.HandleFunc("POST /collections/{name}/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("POST /promote", s.handlePromote)
	s.mux.HandleFunc("GET /replstatus", s.handleReplStatus)
	if cfg.FollowURL != "" {
		s.repl = newReplicator(s, cfg)
	}
	if cfg.MaintenanceInterval > 0 {
		go s.maintainLoop()
	} else {
		close(s.done)
	}
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Catalog exposes the underlying catalog (tests and bondd's shutdown
// path).
func (s *Server) Catalog() *Catalog { return s.cat }

// Close stops the maintenance loop, checkpoints every collection with a
// non-empty WAL (so the next start replays nothing), and closes every
// WAL with a final fsync. It is safe to call once; in-flight HTTP
// requests should be drained first (http.Server.Shutdown), since Close
// does not wait for them. Durability does not depend on Close — a
// SIGKILL instead of a clean shutdown loses nothing acknowledged under
// fsync=always — it only makes the next start cheap.
func (s *Server) Close() error {
	if s.repl != nil {
		s.repl.stopLoop()
	}
	close(s.stop)
	<-s.done
	_, err := s.cat.CheckpointLoaded(0)
	if cerr := s.cat.CloseAll(); err == nil {
		err = cerr
	}
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// --- Maintenance ----------------------------------------------------------

// reclusterSeed is the k-means seed maintenance re-clusters run with. A
// fixed seed keeps maintenance deterministic and reproducible; callers
// wanting a different initialization use the manual recluster endpoint.
const reclusterSeed = 1

func (s *Server) maintainLoop() {
	defer close(s.done)
	t := time.NewTicker(s.cfg.MaintenanceInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if compacted, reclustered, checkpointed, err := s.RunMaintenance(); err != nil {
				s.logf("bondd: maintenance: %v", err)
			} else if compacted+reclustered+checkpointed > 0 {
				s.logf("bondd: maintenance: compacted %d, reclustered %d, checkpointed %d",
					compacted, reclustered, checkpointed)
			}
		}
	}
}

// RunMaintenance performs one maintenance cycle over the loaded
// collections: collections whose tombstone ratio is at or above the
// compaction threshold are compacted (a WAL-logged mutation that remaps
// surviving ids — the API's documented id contract); collections whose
// sealed synopsis spread is at or above the recluster threshold are
// re-clustered into cluster-contiguous segments (also a WAL-logged,
// id-remapping mutation) and immediately checkpointed, so recovery never
// has to re-run the clustering; then every collection whose WAL has
// outgrown WALMaxBytes is checkpointed, which truncates its log.
// Durability never waits for this loop — writes are WAL-logged at
// acknowledgment time — the loop only bounds tombstone load, scan load,
// and recovery replay time. Safe to call concurrently with serving
// traffic; compaction and re-clustering serialize against queries on the
// collection's own write lock, and checkpoint I/O runs outside it.
func (s *Server) RunMaintenance() (compacted, reclustered, checkpointed int, err error) {
	s.maintRuns.Add(1)
	// A follower performs no maintenance of its own: compactions and
	// re-clusters are WAL-logged mutations that arrive through the
	// stream, and a local checkpoint would rotate the WAL out of
	// lockstep with the leader's sequence numbering. Rotation happens
	// exactly when the stream says the leader rotated.
	if s.readOnlyReplica() {
		return 0, 0, 0, nil
	}
	if s.cfg.CompactRatio >= 0 {
		for name, col := range s.cat.Loaded() {
			ratio := col.TombstoneRatio()
			if ratio < s.cfg.CompactRatio || ratio == 0 {
				continue
			}
			if _, cerr := col.CompactRatioDurable(s.cfg.CompactRatio); cerr != nil {
				if err == nil {
					err = fmt.Errorf("server: compact %q: %w", name, cerr)
				}
				continue
			}
			compacted++
			s.compactions.Add(1)
		}
	}
	if s.cfg.ReclusterSpread >= 0 {
		for name, col := range s.cat.Loaded() {
			if _, advise := col.ReclusterAdvice(s.cfg.ReclusterSpread); !advise {
				continue
			}
			mapping, rerr := col.ReclusterDurable(0, reclusterSeed)
			if rerr != nil {
				if err == nil {
					err = fmt.Errorf("server: recluster %q: %w", name, rerr)
				}
				continue
			}
			if mapping == nil {
				continue
			}
			reclustered++
			s.reclusters.Add(1)
			// Checkpoint right away: replaying a recluster record re-runs
			// k-means over the pre-recluster state, so leaving one in the
			// WAL makes the next open pay for the clustering twice.
			if cerr := col.Checkpoint(); cerr != nil && err == nil {
				err = fmt.Errorf("server: checkpoint after recluster %q: %w", name, cerr)
			}
		}
	}
	checkpointed, ckErr := s.cat.CheckpointLoaded(s.cfg.WALMaxBytes)
	if err == nil {
		err = ckErr
	}
	s.checkpoints.Add(int64(checkpointed))
	return compacted, reclustered, checkpointed, err
}

// --- The api.Backend ------------------------------------------------------

type serverStats struct {
	UptimeSeconds   float64 `json:"uptime_seconds"`
	InFlight        int64   `json:"in_flight"`
	MaxInFlight     int     `json:"max_in_flight"`
	MaintenanceRuns int64   `json:"maintenance_runs"`
	Compactions     int64   `json:"compactions"`
	// Reclusters counts server-performed re-clustering passes (maintenance
	// plus the manual endpoint); each collection's own recluster gauges
	// (reclusters, sealed_spread) are nested under its CollectionStats.
	Reclusters int64 `json:"reclusters"`
	// Checkpoints counts maintenance-triggered WAL checkpoints; each
	// collection's own durability block (wal_bytes, wal_records, wal_seq,
	// checkpoints) is nested under its CollectionStats.
	Checkpoints int64                           `json:"checkpoints"`
	Fsync       string                          `json:"fsync"`
	WALMaxBytes int64                           `json:"wal_max_bytes"`
	Collections map[string]bond.CollectionStats `json:"collections"`
	// Role is "single" on a standalone node, "follower" on an unpromoted
	// replica, "promoted" after POST /promote; Replication carries the
	// follower's lag gauges (nil unless the node was started with
	// -follow).
	Role        string          `json:"role"`
	Replication *api.ReplStatus `json:"replication,omitempty"`
}

// catalogError gives a catalog error the status the API answers it with.
func catalogError(err error) error {
	status := http.StatusInternalServerError
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrBadName), errors.Is(err, ErrBadShape):
		status = http.StatusBadRequest
	case errors.Is(err, ErrExists):
		status = http.StatusConflict
	case errors.Is(err, vstore.ErrOlderLayout):
		// The files' condition, not a fault: it lasts until an operator
		// acts, so no retry can help.
		return &api.StatusError{Status: http.StatusConflict, Code: "older_layout", Msg: err.Error()}
	}
	return api.WithStatus(status, err)
}

// collection looks name up in the catalog, loading it on first touch.
func (s *Server) collection(name string) (*bond.Collection, error) {
	col, err := s.cat.Get(name)
	return col, catalogError(err)
}

// Admit fences every mutation on an unpromoted follower, then answers a
// missing collection — both before the request's body is read.
func (s *Server) Admit(op api.Op, name string) error {
	if op != api.OpRead && op != api.OpExplain && s.readOnlyReplica() {
		return errReadOnlyReplica
	}
	if op == api.OpDefine {
		return nil
	}
	_, err := s.collection(name)
	return err
}

// Ready is the readiness probe, distinct from liveness: a node is ready
// only when it can actually acknowledge writes — the catalog directory is
// writable and every loaded collection's WAL is appendable. A node that
// accepts TCP but sits on a full or failing disk answers 503 here, so the
// coordinator's prober and load balancers stop routing writes to it while
// /healthz still reports the process alive.
func (s *Server) Ready() (any, error) {
	if err := s.cat.Ready(); err != nil {
		return nil, &api.StatusError{
			Status: http.StatusServiceUnavailable,
			Code:   "not_ready",
			Msg:    fmt.Sprintf("not ready: %v", err),
		}
	}
	return map[string]string{"status": "ready"}, nil
}

func (s *Server) Stats() any {
	st := serverStats{
		UptimeSeconds:   time.Since(s.start).Seconds(),
		InFlight:        s.inflight.Load(),
		MaxInFlight:     s.cfg.MaxInFlight,
		MaintenanceRuns: s.maintRuns.Load(),
		Compactions:     s.compactions.Load(),
		Reclusters:      s.reclusters.Load(),
		Checkpoints:     s.checkpoints.Load(),
		Fsync:           s.cfg.Fsync.String(),
		WALMaxBytes:     s.cfg.WALMaxBytes,
		Collections:     map[string]bond.CollectionStats{},
	}
	for name, col := range s.cat.Loaded() {
		st.Collections[name] = col.StatsSnapshot()
	}
	st.Role = "single"
	if s.repl != nil {
		rs := s.ReplStatus()
		st.Replication = &rs
		if rs.Promoted {
			st.Role = "promoted"
		} else {
			st.Role = "follower"
		}
	}
	return st
}

func (s *Server) List(context.Context) ([]string, error) { return s.cat.Names() }

func (s *Server) Create(_ context.Context, name string, req *api.CreateRequest) (*api.CreateResponse, error) {
	col, created, err := s.cat.Create(name, req.Dims, req.SegmentSize)
	if err != nil {
		return nil, catalogError(err)
	}
	return &api.CreateResponse{Name: name, Dims: col.Dims(), Created: created}, nil
}

func (s *Server) Drop(_ context.Context, name string) error { return catalogError(s.cat.Drop(name)) }

func (s *Server) Describe(_ context.Context, name string) (any, error) {
	col, err := s.collection(name)
	if err != nil {
		return nil, err
	}
	return col.StatsSnapshot(), nil
}

func (s *Server) Ingest(_ context.Context, name string, vectors [][]float64) (*api.IngestResponse, error) {
	col, err := s.collection(name)
	if err != nil {
		return nil, err
	}
	if err := api.CheckDims(name, col.Dims(), vectors); err != nil {
		return nil, err
	}
	// The batch is WAL-logged (and, under fsync=always, fsynced) as one
	// atomic record before AddBatchDurable returns: the 2xx this answer
	// becomes IS the durability acknowledgment.
	first, err := col.AddBatchDurable(vectors)
	if err != nil {
		return nil, api.Errorf(http.StatusInternalServerError, "ingest not durable: %v", err)
	}
	return &api.IngestResponse{FirstID: first, Count: len(vectors)}, nil
}

func (s *Server) Vector(_ context.Context, name string, id int) (*api.VectorResponse, error) {
	col, err := s.collection(name)
	if err != nil {
		return nil, err
	}
	v, ok := col.TryVector(id)
	if !ok {
		return nil, api.Errorf(http.StatusNotFound, "id %d outside collection [0,%d)", id, col.Len())
	}
	return &api.VectorResponse{ID: id, Vector: v}, nil
}

func (s *Server) DeleteVector(_ context.Context, name string, id int) error {
	col, err := s.collection(name)
	if err != nil {
		return err
	}
	ok, err := col.TryDeleteDurable(id)
	if err != nil {
		return api.Errorf(http.StatusInternalServerError, "delete not durable: %v", err)
	}
	if !ok {
		return api.Errorf(http.StatusNotFound, "id %d outside collection [0,%d)", id, col.Len())
	}
	return nil
}

// example resolves a query-by-example id against col.
func example(col *bond.Collection, id int) ([]float64, error) {
	if q, ok := col.TryVector(id); ok {
		return q, nil
	}
	return nil, api.Errorf(http.StatusBadRequest, "id %d outside collection [0,%d)", id, col.Len())
}

func toResponse(res bond.QueryResult) api.QueryResponse {
	out := api.QueryResponse{
		Results: make([]api.Neighbor, len(res.Results)),
		Stats: api.QueryStats{
			ValuesScanned:    res.Stats.ValuesScanned,
			FinalCandidates:  res.Stats.FinalCandidates,
			SegmentsSearched: res.Stats.SegmentsSearched,
			SegmentsSkipped:  res.Stats.SegmentsSkipped,
		},
		Truncated: res.Truncated,
	}
	for i, n := range res.Results {
		out.Results[i] = api.Neighbor{ID: n.ID, Score: n.Score}
	}
	return out
}

// overloadedRetryAfterMs is the back-off hint a saturated node serves
// with its 503: long enough to drain a slow query, short enough that a
// retrying coordinator still lands well inside a typical request
// deadline.
const overloadedRetryAfterMs = 1000

// acquire admits one query execution, waiting for a slot while the
// request is still alive. When the request's context ends first (client
// gone, or server shutting down the connection), which is what bounds the
// query backlog, it answers a structured 503: the retry hint tells
// well-behaved clients (the coordinator's retry envelope among them) to
// back off instead of hammering a saturated node.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		s.inflight.Add(1)
		return nil
	default:
	}
	select {
	case s.sem <- struct{}{}:
		s.inflight.Add(1)
		return nil
	case <-ctx.Done():
		return &api.StatusError{
			Status:       http.StatusServiceUnavailable,
			Code:         "overloaded",
			Msg:          fmt.Sprintf("server overloaded: %d queries in flight", s.cfg.MaxInFlight),
			RetryAfterMs: overloadedRetryAfterMs,
		}
	}
}

func (s *Server) release() {
	s.inflight.Add(-1)
	<-s.sem
}

// lower looks name up and lowers wq against it, taking an admission
// slot the caller releases.
func (s *Server) lower(ctx context.Context, name string, wq *api.QuerySpec) (*bond.Collection, bond.QuerySpec, error) {
	col, err := s.collection(name)
	if err != nil {
		return nil, bond.QuerySpec{}, err
	}
	spec, err := api.ToSpec(wq, func(id int) ([]float64, error) { return example(col, id) })
	if err == nil {
		err = s.acquire(ctx)
	}
	return col, spec, err
}

func (s *Server) Query(ctx context.Context, name string, wq *api.QuerySpec) (*api.QueryResponse, error) {
	col, spec, err := s.lower(ctx, name, wq)
	if err != nil {
		return nil, err
	}
	defer s.release()
	res, err := col.Query(spec)
	if err != nil {
		return nil, api.WithStatus(http.StatusBadRequest, err)
	}
	out := toResponse(res)
	return &out, nil
}

// QueryBatch maps the batch endpoint straight onto Collection.QueryBatch:
// one read-lock acquisition, one shared planner segment list, and a
// GOMAXPROCS-wide worker pool under the hood, each worker co-scheduling up
// to sixteen of the request's queries so that they read a segment once
// between them — which is why one request of N specs costs less than N
// requests. The whole batch holds a single admission slot — QueryBatch
// self-limits its internal parallelism. A spec's deadline is checked
// before each of its own steps, and those steps interleave with its
// group's.
func (s *Server) QueryBatch(ctx context.Context, name string, wqs []api.QuerySpec) (*api.BatchResponse, error) {
	col, err := s.collection(name)
	if err != nil {
		return nil, err
	}
	specs := make([]bond.QuerySpec, len(wqs))
	for i := range wqs {
		if specs[i], err = api.ToSpec(&wqs[i], func(id int) ([]float64, error) { return example(col, id) }); err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
	}
	if err := s.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.release()
	results, err := col.QueryBatch(specs)
	if err != nil {
		return nil, api.WithStatus(http.StatusBadRequest, err)
	}
	out := &api.BatchResponse{Results: make([]api.QueryResponse, len(results))}
	for i, res := range results {
		out.Results[i] = toResponse(res)
	}
	return out, nil
}

// Explain runs the query and answers its results with the rendered
// per-segment plan, predicted and actual costs side by side.
func (s *Server) Explain(ctx context.Context, name string, wq *api.QuerySpec) (*api.ExplainResponse, error) {
	col, spec, err := s.lower(ctx, name, wq)
	if err != nil {
		return nil, err
	}
	defer s.release()
	res, p, err := col.QueryExplain(spec)
	if err != nil {
		return nil, api.WithStatus(http.StatusBadRequest, err)
	}
	return &api.ExplainResponse{QueryResponse: toResponse(res), Plan: p.Explain()}, nil
}

// Recluster runs one re-clustering pass on demand — the manual override
// of the maintenance heuristic (no spread threshold, no minimum segment
// count). The rewrite is WAL-logged before it applies and the collection
// is checkpointed before the answer, so a 2xx means the new layout is on
// stable storage and the next open replays no k-means.
func (s *Server) Recluster(_ context.Context, name string, req *api.ReclusterRequest) (*api.ReclusterResponse, error) {
	col, err := s.collection(name)
	if err != nil {
		return nil, err
	}
	seed := int64(reclusterSeed)
	if req.Seed != nil {
		seed = *req.Seed
	}
	out := &api.ReclusterResponse{}
	out.SpreadBefore, _ = col.SealedSpread()
	mapping, err := col.ReclusterDurable(req.K, seed)
	if err != nil {
		return nil, api.Errorf(http.StatusInternalServerError, "recluster not durable: %v", err)
	}
	if mapping != nil {
		out.Reclustered = true
		s.reclusters.Add(1)
		if err := col.Checkpoint(); err != nil {
			return nil, api.Errorf(http.StatusInternalServerError, "checkpoint after recluster %q: %v", name, err)
		}
	}
	out.SpreadAfter, _ = col.SealedSpread()
	out.Segments = col.NumSegments()
	return out, nil
}
