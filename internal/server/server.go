package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"bond"
	"bond/internal/api"
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

// Server is the bondd serving layer: catalog + HTTP handlers + the
// background maintenance loop. Create one with New, mount Handler, and
// Close on the way out to flush unpersisted writes.
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
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
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
	s.mux = http.NewServeMux()
	s.routes()
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

// --- Routing --------------------------------------------------------------

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /collections", s.handleList)
	s.mux.HandleFunc("PUT /collections/{name}", s.handleCreate)
	s.mux.HandleFunc("DELETE /collections/{name}", s.handleDrop)
	s.mux.HandleFunc("GET /collections/{name}", s.handleCollectionStats)
	s.mux.HandleFunc("POST /collections/{name}/vectors", s.handleIngest)
	s.mux.HandleFunc("GET /collections/{name}/vectors/{id}", s.handleGetVector)
	s.mux.HandleFunc("DELETE /collections/{name}/vectors/{id}", s.handleDeleteVector)
	s.mux.HandleFunc("POST /collections/{name}/recluster", s.handleRecluster)
	s.mux.HandleFunc("POST /collections/{name}/query", s.handleQuery)
	s.mux.HandleFunc("POST /collections/{name}/query/batch", s.handleQueryBatch)
	s.mux.HandleFunc("GET /collections/{name}/explain", s.handleExplain)
	s.mux.HandleFunc("POST /collections/{name}/explain", s.handleExplain)
	// Replication: any node serves its WAL and snapshots (leader side);
	// promote/replstatus are meaningful on followers.
	s.mux.HandleFunc("GET /collections/{name}/wal", s.handleWALChunk)
	s.mux.HandleFunc("POST /collections/{name}/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("POST /promote", s.handlePromote)
	s.mux.HandleFunc("GET /replstatus", s.handleReplStatus)
}

// --- Wire types -----------------------------------------------------------
//
// The JSON shapes live in package api, shared with the sharded
// coordinator (internal/shard) so both layers speak the same protocol;
// the local names below keep this package (and its tests) reading as
// before. A single node ignores the coordinator-only fields (QuerySpec.
// Policy) and never sets the degradation fields (QueryResponse.Partial,
// MissedShards).

type (
	errorWire      = api.Error
	createRequest  = api.CreateRequest
	createResponse = api.CreateResponse
	ingestRequest  = api.IngestRequest
	ingestResponse = api.IngestResponse
	querySpecWire  = api.QuerySpec
	neighborWire   = api.Neighbor
	statsWire      = api.QueryStats
	queryResponse  = api.QueryResponse
	batchRequest   = api.BatchRequest
	batchResponse  = api.BatchResponse
	vectorResponse = api.VectorResponse
)

type explainResponse struct {
	queryResponse
	// Plan is Plan.Explain's rendering: per-segment access path with
	// predicted and actual cost.
	Plan string `json:"plan"`
}

// reclusterRequest parameterizes a manual recluster; the body may be
// empty. K ≤ 0 selects one cluster per segment-size of live sealed
// vectors; Seed fixes the k-means initialization (default 1).
type reclusterRequest struct {
	K    int    `json:"k,omitempty"`
	Seed *int64 `json:"seed,omitempty"`
}

type reclusterResponse struct {
	// Reclustered is false when there was nothing to rewrite (no sealed
	// segment with live vectors), in which case nothing was logged.
	Reclustered bool `json:"reclustered"`
	// SpreadBefore/SpreadAfter are the sealed synopsis-spread gauge around
	// the rewrite (0 when unmeasurable); Segments the segment count after.
	SpreadBefore float64 `json:"spread_before"`
	SpreadAfter  float64 `json:"spread_after"`
	Segments     int     `json:"segments"`
}

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

// --- Helpers --------------------------------------------------------------

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	if status >= 500 {
		s.logf("bondd: %v", err)
	}
	api.WriteJSON(w, status, errorWire{Error: err.Error()})
}

// writeAnswer sends a query or batch answer, logging one that could not
// be encoded (WriteJSON has answered it 500).
func (s *Server) writeAnswer(w http.ResponseWriter, v any) {
	if err := api.WriteJSON(w, http.StatusOK, v); err != nil {
		s.logf("bondd: %v", err)
	}
}

// catalogStatus maps catalog errors onto HTTP statuses.
func catalogStatus(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrBadName), errors.Is(err, ErrBadShape):
		return http.StatusBadRequest
	case errors.Is(err, ErrExists):
		return http.StatusConflict
	}
	return http.StatusInternalServerError
}

// acquire admits one query execution, waiting for a slot while the
// request is still alive. It reports false — after writing 503 — when the
// request's context ends first (client gone, or server shutting down the
// connection), which is what bounds the query backlog.
func (s *Server) acquire(w http.ResponseWriter, r *http.Request) bool {
	select {
	case s.sem <- struct{}{}:
		s.inflight.Add(1)
		return true
	default:
	}
	select {
	case s.sem <- struct{}{}:
		s.inflight.Add(1)
		return true
	case <-r.Context().Done():
		// A structured rejection: the Retry-After header and the
		// machine-readable body tell well-behaved clients (the
		// coordinator's retry envelope among them) to back off instead of
		// hammering a saturated node.
		err := fmt.Errorf("server overloaded: %d queries in flight", s.cfg.MaxInFlight)
		s.logf("bondd: %v", err)
		w.Header().Set("Retry-After", strconv.Itoa(overloadedRetryAfterMs/1000))
		api.WriteJSON(w, http.StatusServiceUnavailable, errorWire{
			Error:        err.Error(),
			Code:         "overloaded",
			RetryAfterMs: overloadedRetryAfterMs,
		})
		return false
	}
}

// overloadedRetryAfterMs is the back-off hint a saturated node serves
// with its 503: long enough to drain a slow query, short enough that a
// retrying coordinator still lands well inside a typical request
// deadline.
const overloadedRetryAfterMs = 1000

func (s *Server) release() {
	s.inflight.Add(-1)
	<-s.sem
}

// toSpec lowers the wire spec onto a bond.QuerySpec, resolving
// query-by-example ids against the collection.
func toSpec(col *bond.Collection, wq querySpecWire) (bond.QuerySpec, error) {
	spec := bond.QuerySpec{
		K:         wq.K,
		Step:      wq.Step,
		Weights:   wq.Weights,
		Dims:      wq.Dims,
		Parallel:  wq.Parallel,
		Tolerance: wq.Tolerance,
	}
	switch {
	case len(wq.Query) > 0 && wq.ID != nil:
		return spec, fmt.Errorf("set either query or id, not both")
	case len(wq.Query) > 0:
		spec.Query = wq.Query
	case wq.ID != nil:
		q, ok := col.TryVector(*wq.ID)
		if !ok {
			return spec, fmt.Errorf("id %d outside collection [0,%d)", *wq.ID, col.Len())
		}
		spec.Query = q
	default:
		return spec, fmt.Errorf("query vector (or id) is required")
	}
	var err error
	if spec.Criterion, err = bond.ParseCriterion(wq.Criterion); err != nil {
		return spec, err
	}
	if spec.Order, err = bond.ParseOrder(wq.Order); err != nil {
		return spec, err
	}
	if spec.Strategy, err = bond.ParseStrategy(wq.Strategy); err != nil {
		return spec, err
	}
	if wq.TimeoutMs > 0 {
		spec.Deadline = time.Now().Add(time.Duration(wq.TimeoutMs) * time.Millisecond)
	}
	return spec, nil
}

func toResponse(res bond.QueryResult) queryResponse {
	out := queryResponse{
		Results: make([]neighborWire, len(res.Results)),
		Stats: statsWire{
			ValuesScanned:    res.Stats.ValuesScanned,
			FinalCandidates:  res.Stats.FinalCandidates,
			SegmentsSearched: res.Stats.SegmentsSearched,
			SegmentsSkipped:  res.Stats.SegmentsSkipped,
		},
		Truncated: res.Truncated,
	}
	for i, n := range res.Results {
		out.Results[i] = neighborWire{ID: n.ID, Score: n.Score}
	}
	return out
}

// --- Handlers -------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	api.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe, distinct from liveness: a node is
// ready only when it can actually acknowledge writes — the catalog
// directory is writable and every loaded collection's WAL is appendable.
// A node that accepts TCP but sits on a full or failing disk answers 503
// here, so the coordinator's prober and load balancers stop routing
// writes to it while /healthz still reports the process alive.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if err := s.cat.Ready(); err != nil {
		api.WriteJSON(w, http.StatusServiceUnavailable, errorWire{
			Error: fmt.Sprintf("not ready: %v", err),
			Code:  "not_ready",
		})
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
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
	api.WriteJSON(w, http.StatusOK, st)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	names, err := s.cat.Names()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string][]string{"collections": names})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if s.fenceReplica(w) {
		return
	}
	var req createRequest
	if err := api.DecodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	name := r.PathValue("name")
	col, created, err := s.cat.Create(name, req.Dims, req.SegmentSize)
	if err != nil {
		s.writeError(w, catalogStatus(err), err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	api.WriteJSON(w, status, createResponse{Name: name, Dims: col.Dims(), Created: created})
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	if s.fenceReplica(w) {
		return
	}
	if err := s.cat.Drop(r.PathValue("name")); err != nil {
		s.writeError(w, catalogStatus(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleCollectionStats(w http.ResponseWriter, r *http.Request) {
	col, err := s.cat.Get(r.PathValue("name"))
	if err != nil {
		s.writeError(w, catalogStatus(err), err)
		return
	}
	api.WriteJSON(w, http.StatusOK, col.StatsSnapshot())
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.fenceReplica(w) {
		return
	}
	name := r.PathValue("name")
	col, err := s.cat.Get(name)
	if err != nil {
		s.writeError(w, catalogStatus(err), err)
		return
	}
	var req ingestRequest
	if err := api.DecodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	var vectors [][]float64
	switch {
	case len(req.Vector) > 0 && len(req.Vectors) > 0:
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("set either vector or vectors, not both"))
		return
	case len(req.Vector) > 0:
		vectors = [][]float64{req.Vector}
	case len(req.Vectors) > 0:
		vectors = req.Vectors
	default:
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("vector or vectors is required"))
		return
	}
	dims := col.Dims() // hoisted: Dims takes the collection's read lock
	for i, v := range vectors {
		if len(v) != dims {
			s.writeError(w, http.StatusBadRequest,
				fmt.Errorf("vector %d has %d dims, collection %q has %d", i, len(v), name, dims))
			return
		}
	}
	// The batch is WAL-logged (and, under fsync=always, fsynced) as one
	// atomic record before AddBatchDurable returns: the 2xx below IS the
	// durability acknowledgment.
	first, err := col.AddBatchDurable(vectors)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, fmt.Errorf("ingest not durable: %w", err))
		return
	}
	api.WriteJSON(w, http.StatusOK, ingestResponse{FirstID: first, Count: len(vectors)})
}

// handleGetVector reads one vector back by id — the readback clients use
// to audit durability (and the SIGKILL end-to-end test relies on).
func (s *Server) handleGetVector(w http.ResponseWriter, r *http.Request) {
	col, err := s.cat.Get(r.PathValue("name"))
	if err != nil {
		s.writeError(w, catalogStatus(err), err)
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad vector id: %w", err))
		return
	}
	v, ok := col.TryVector(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("id %d outside collection [0,%d)", id, col.Len()))
		return
	}
	api.WriteJSON(w, http.StatusOK, vectorResponse{ID: id, Vector: v})
}

func (s *Server) handleDeleteVector(w http.ResponseWriter, r *http.Request) {
	if s.fenceReplica(w) {
		return
	}
	name := r.PathValue("name")
	col, err := s.cat.Get(name)
	if err != nil {
		s.writeError(w, catalogStatus(err), err)
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad vector id: %w", err))
		return
	}
	ok, err := col.TryDeleteDurable(id)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, fmt.Errorf("delete not durable: %w", err))
		return
	}
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("id %d outside collection [0,%d)", id, col.Len()))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleRecluster triggers one re-clustering pass on demand — the manual
// override of the maintenance heuristic (no spread threshold, no
// minimum segment count). The rewrite is WAL-logged before it applies
// and the collection is checkpointed before the response, so a 2xx means
// the new layout is on stable storage and the next open replays no
// k-means.
func (s *Server) handleRecluster(w http.ResponseWriter, r *http.Request) {
	if s.fenceReplica(w) {
		return
	}
	name := r.PathValue("name")
	col, err := s.cat.Get(name)
	if err != nil {
		s.writeError(w, catalogStatus(err), err)
		return
	}
	req := reclusterRequest{}
	if err := api.DecodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil && !errors.Is(err, io.EOF) {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	seed := int64(reclusterSeed)
	if req.Seed != nil {
		seed = *req.Seed
	}
	out := reclusterResponse{}
	out.SpreadBefore, _ = col.SealedSpread()
	mapping, err := col.ReclusterDurable(req.K, seed)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, fmt.Errorf("recluster not durable: %w", err))
		return
	}
	if mapping != nil {
		out.Reclustered = true
		s.reclusters.Add(1)
		if err := col.Checkpoint(); err != nil {
			s.writeError(w, http.StatusInternalServerError,
				fmt.Errorf("checkpoint after recluster %q: %w", name, err))
			return
		}
	}
	out.SpreadAfter, _ = col.SealedSpread()
	out.Segments = col.NumSegments()
	api.WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	col, err := s.cat.Get(r.PathValue("name"))
	if err != nil {
		s.writeError(w, catalogStatus(err), err)
		return
	}
	var wq querySpecWire
	if err := api.DecodeBody(w, r, s.cfg.MaxBodyBytes, &wq); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	spec, err := toSpec(col, wq)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if !s.acquire(w, r) {
		return
	}
	defer s.release()
	res, err := col.Query(spec)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	out := toResponse(res)
	s.writeAnswer(w, &out)
}

// handleQueryBatch maps the batch endpoint straight onto
// Collection.QueryBatch: one read-lock acquisition, one shared planner
// segment list, and a GOMAXPROCS-wide worker pool under the hood, each
// worker co-scheduling up to sixteen of the request's queries so that they
// read a segment once between them — which is why one request of N specs
// costs less than N requests. The whole batch holds a single admission
// slot — QueryBatch self-limits its internal parallelism. A spec's
// deadline is checked before each of its own steps, and those steps
// interleave with its group's.
func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	col, err := s.cat.Get(r.PathValue("name"))
	if err != nil {
		s.writeError(w, catalogStatus(err), err)
		return
	}
	var req batchRequest
	if err := api.DecodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Queries) == 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("queries is required"))
		return
	}
	specs := make([]bond.QuerySpec, len(req.Queries))
	for i, wq := range req.Queries {
		if specs[i], err = toSpec(col, wq); err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("query %d: %w", i, err))
			return
		}
	}
	if !s.acquire(w, r) {
		return
	}
	defer s.release()
	results, err := col.QueryBatch(specs)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	out := batchResponse{Results: make([]queryResponse, len(results))}
	for i, res := range results {
		out.Results[i] = toResponse(res)
	}
	s.writeAnswer(w, &out)
}

// handleExplain serves the PR-2 EXPLAIN plan over HTTP. POST takes the
// same JSON spec as the query endpoint; GET takes query-by-example
// parameters (?id=17&k=10&criterion=Hq&strategy=auto&order=desc&step=8)
// for curl-friendly inspection. Both execute the query and return the
// results plus the rendered per-segment plan with predicted and actual
// costs.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	col, err := s.cat.Get(r.PathValue("name"))
	if err != nil {
		s.writeError(w, catalogStatus(err), err)
		return
	}
	var wq querySpecWire
	if r.Method == http.MethodPost {
		if err := api.DecodeBody(w, r, s.cfg.MaxBodyBytes, &wq); err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
	} else {
		if wq, err = explainParams(r); err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	spec, err := toSpec(col, wq)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if !s.acquire(w, r) {
		return
	}
	defer s.release()
	res, p, err := col.QueryExplain(spec)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, explainResponse{queryResponse: toResponse(res), Plan: p.Explain()})
}

// explainParams lifts GET query parameters into the wire spec.
func explainParams(r *http.Request) (querySpecWire, error) {
	q := r.URL.Query()
	wq := querySpecWire{
		Criterion: q.Get("criterion"),
		Order:     q.Get("order"),
		Strategy:  q.Get("strategy"),
		K:         10,
	}
	if v := q.Get("id"); v != "" {
		id, err := strconv.Atoi(v)
		if err != nil {
			return wq, fmt.Errorf("bad id: %w", err)
		}
		wq.ID = &id
	} else {
		return wq, fmt.Errorf("id is required (query-by-example; POST a JSON spec for arbitrary vectors)")
	}
	for _, p := range []struct {
		name string
		dst  *int
	}{{"k", &wq.K}, {"step", &wq.Step}, {"parallel", &wq.Parallel}} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return wq, fmt.Errorf("bad %s: %w", p.name, err)
			}
			*p.dst = n
		}
	}
	return wq, nil
}
