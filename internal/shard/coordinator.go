package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bond"
	"bond/internal/api"
	"bond/internal/streammerge"
	"bond/internal/topk"
)

// Policy is a degradation policy: what the coordinator serves when a
// shard stays missing after the whole robustness envelope (retries,
// hedge, breaker) has been spent.
type Policy int

const (
	// Strict turns any missed shard into a clean error within the request
	// deadline — correct-or-nothing.
	Strict Policy = iota
	// Partial returns the exact top-k over the surviving shards, with
	// Partial=true and the missed shard ids in the response — the
	// cluster-layer version of trading a little completeness for bounded
	// latency.
	Partial
)

// String names the policy as the CLI spells it.
func (p Policy) String() string {
	if p == Partial {
		return "partial"
	}
	return "strict"
}

// ParsePolicy parses a degradation-policy name.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "strict", "":
		return Strict, nil
	case "partial":
		return Partial, nil
	}
	return Strict, fmt.Errorf("shard: unknown degradation policy %q (want strict or partial)", s)
}

// Config configures a Coordinator.
type Config struct {
	// Topology is the static shard map. Required.
	Topology *Topology
	// Envelope parameterizes retries, backoff, and hedging per shard
	// call; the zero value selects the documented defaults.
	Envelope Envelope
	// BreakerThreshold is the consecutive-failure count that opens a
	// shard's circuit breaker (0 = 5); BreakerCooldown how long an open
	// breaker fast-fails before admitting a trial call (0 = 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// ProbeInterval is the background health prober's period (0 disables
	// the loop; ProbeNow can still be driven manually). ProbePath is the
	// endpoint probed (default /healthz).
	ProbeInterval time.Duration
	ProbePath     string
	// DefaultTimeout is the fan-out budget of a request that sets no
	// timeout_ms (0 = 5s). Every shard call — attempts, backoffs, hedges
	// — is carved out of this budget, which is what bounds the cost of a
	// dead shard to a slice of the deadline.
	DefaultTimeout time.Duration
	// DegradePolicy is the default degradation policy; a query may
	// override it per request via the policy field.
	DegradePolicy Policy
	// PromoteReplicas lets a probe round fail a dead shard over to a
	// caught-up replica (probe failed + breaker open → promote) instead of
	// degrading until the primary returns. Only meaningful for shards
	// whose topology entry lists replicas.
	PromoteReplicas bool
	// ReadReplicas steers idempotent reads (queries, point reads, stats)
	// to a caught-up replica when the probe round found one, shedding read
	// load off primaries. Writes always go to the active node.
	ReadReplicas bool
	// HTTPClient overrides the HTTP client shard calls go through (tests
	// inject httptest clients); nil uses a fresh default client.
	HTTPClient *http.Client
	// Logf receives one line per degraded or failed fan-out (nil =
	// silent).
	Logf func(format string, args ...any)
}

// Coordinator serves the bondd HTTP API over a static topology of
// shards: ingest, delete, and point reads hash-route by vector id to the
// owning shard; queries fan out to every shard and exact-merge. See the
// package comment for the placement scheme and fault-tolerance model.
type Coordinator struct {
	cfg     Config
	topo    *Topology
	clients []*client
	mux     *http.ServeMux
	start   time.Time

	// colMu guards nextID, and serializes ingest fan-outs per process so
	// concurrent ingests cannot interleave their sub-batches at a shard
	// (which would break the round-robin id layout both routing and the
	// single-node equivalence depend on).
	colMu  sync.Mutex
	nextID map[string]int // next global id per collection; absent = resync from shard lengths

	queries      atomic.Int64 // queries served (batch counts each query)
	fanouts      atomic.Int64 // shard calls fanned out
	partials     atomic.Int64 // responses degraded to partial
	strictErrors atomic.Int64 // strict-mode fan-outs failed on a missed shard

	stop       chan struct{} // closed by Close to stop the prober
	proberDone chan struct{} // closed when the prober loop exits
}

// NewCoordinator builds a coordinator over the given topology and starts
// the health prober when the config asks for one. Close stops it.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.Topology == nil || cfg.Topology.N() == 0 {
		return nil, fmt.Errorf("shard: coordinator needs a topology")
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * time.Second
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 5 * time.Second
	}
	if cfg.ProbePath == "" {
		cfg.ProbePath = "/healthz"
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	co := &Coordinator{
		cfg:        cfg,
		topo:       cfg.Topology,
		start:      time.Now(),
		nextID:     map[string]int{},
		stop:       make(chan struct{}),
		proberDone: make(chan struct{}),
	}
	for _, s := range cfg.Topology.Shards {
		brk := NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
		co.clients = append(co.clients, newClient(s, hc, cfg.Envelope, brk))
	}
	co.mux = http.NewServeMux()
	co.routes()
	if cfg.ProbeInterval > 0 {
		go co.proberLoop(cfg.ProbeInterval)
	} else {
		close(co.proberDone)
	}
	return co, nil
}

// Handler returns the coordinator's HTTP handler.
func (co *Coordinator) Handler() http.Handler { return co.mux }

// Close stops the health prober.
func (co *Coordinator) Close() error {
	close(co.stop)
	<-co.proberDone
	return nil
}

func (co *Coordinator) logf(format string, args ...any) {
	if co.cfg.Logf != nil {
		co.cfg.Logf(format, args...)
	}
}

func (co *Coordinator) routes() {
	co.mux.HandleFunc("GET /healthz", co.handleHealthz)
	co.mux.HandleFunc("GET /readyz", co.handleReadyz)
	co.mux.HandleFunc("GET /stats", co.handleStats)
	co.mux.HandleFunc("GET /collections", co.handleList)
	co.mux.HandleFunc("PUT /collections/{name}", co.handleCreate)
	co.mux.HandleFunc("DELETE /collections/{name}", co.handleDrop)
	co.mux.HandleFunc("GET /collections/{name}", co.handleCollectionStats)
	co.mux.HandleFunc("POST /collections/{name}/vectors", co.handleIngest)
	co.mux.HandleFunc("GET /collections/{name}/vectors/{id}", co.handleGetVector)
	co.mux.HandleFunc("DELETE /collections/{name}/vectors/{id}", co.handleDeleteVector)
	co.mux.HandleFunc("POST /collections/{name}/query", co.handleQuery)
	co.mux.HandleFunc("POST /collections/{name}/query/batch", co.handleQueryBatch)
	co.mux.HandleFunc("POST /collections/{name}/recluster", co.handleUnsupported)
	co.mux.HandleFunc("GET /collections/{name}/explain", co.handleUnsupported)
	co.mux.HandleFunc("POST /collections/{name}/explain", co.handleUnsupported)
}

// --- Helpers --------------------------------------------------------------

// maxBodyBytes caps a client request body.
const maxBodyBytes = 64 << 20

func (co *Coordinator) writeError(w http.ResponseWriter, status int, code string, err error, missed []int) {
	if status >= 500 {
		co.logf("coordinator: %v", err)
	}
	api.WriteJSON(w, status, api.Error{Error: err.Error(), Code: code, MissedShards: missed})
}

// writeAnswer sends a query or batch answer, logging one that could not
// be encoded (WriteJSON has answered it 500).
func (co *Coordinator) writeAnswer(w http.ResponseWriter, v any) {
	if err := api.WriteJSON(w, http.StatusOK, v); err != nil {
		co.logf("coordinator: %v", err)
	}
}

// shardCallStatus maps a failed shard call onto the status the
// coordinator reports: deadline exhaustion is 504, everything else the
// shard's own 4xx (pass-through) or 502.
func shardCallStatus(ctx context.Context, err error) (int, string) {
	if ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout, "deadline"
	}
	var se *StatusError
	if errors.As(err, &se) && se.Status >= 400 && se.Status < 500 {
		return se.Status, se.Code
	}
	return http.StatusBadGateway, "shard_unavailable"
}

// budget returns the fan-out deadline context for a request: timeout_ms
// when the spec set one, the configured default otherwise.
func (co *Coordinator) budget(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc) {
	d := co.cfg.DefaultTimeout
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), d)
}

// fanOut runs fn once per shard concurrently and returns the per-shard
// errors (nil entries for successes).
func (co *Coordinator) fanOut(fn func(i int, c *client) error) []error {
	errs := make([]error, len(co.clients))
	var wg sync.WaitGroup
	for i, c := range co.clients {
		wg.Add(1)
		co.fanouts.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			errs[i] = fn(i, c)
		}(i, c)
	}
	wg.Wait()
	return errs
}

// missedOf lists the shard ids with non-nil errors.
func missedOf(errs []error) []int {
	var missed []int
	for i, err := range errs {
		if err != nil {
			missed = append(missed, i)
		}
	}
	return missed
}

// firstErr returns the first non-nil error.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// --- Basic endpoints ------------------------------------------------------

func (co *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	api.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports readiness for traffic under the configured
// default policy: strict needs every shard healthy (a query would
// otherwise fail), partial needs at least one (a query can still degrade
// to the survivors).
func (co *Coordinator) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	healthy := 0
	var down []int
	for i, c := range co.clients {
		if c.healthy.Load() {
			healthy++
		} else {
			down = append(down, i)
		}
	}
	ready := healthy == len(co.clients)
	if co.cfg.DegradePolicy == Partial {
		ready = healthy > 0
	}
	if !ready {
		api.WriteJSON(w, http.StatusServiceUnavailable, api.Error{
			Error:        fmt.Sprintf("not ready: %d/%d shards healthy under policy %s", healthy, len(co.clients), co.cfg.DegradePolicy),
			Code:         "not_ready",
			MissedShards: down,
		})
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{"status": "ready", "healthy_shards": healthy})
}

// shardStatsWire is one shard's robustness gauges on /stats.
type shardStatsWire struct {
	ID  int    `json:"id"`
	URL string `json:"url"`
	// ActiveURL is where calls are actually going: the primary URL until
	// a failover promotes a replica.
	ActiveURL    string   `json:"active_url,omitempty"`
	Replicas     []string `json:"replicas,omitempty"`
	ReadingFrom  string   `json:"reading_from,omitempty"`
	Promotions   int64    `json:"promotions,omitempty"`
	SteeredReads int64    `json:"steered_reads,omitempty"`
	Healthy      bool     `json:"healthy"`
	Breaker      string   `json:"breaker"`
	BreakerOpens int64    `json:"breaker_opens"`
	Requests     int64    `json:"requests"`
	Retries      int64    `json:"retries"`
	Hedges       int64    `json:"hedges"`
	HedgeWins    int64    `json:"hedge_wins"`
	Failures     int64    `json:"failures"`
	FastFails    int64    `json:"fast_fails"`
	Probes       int64    `json:"probes"`
	ProbeFails   int64    `json:"probe_failures"`
}

type coordinatorStats struct {
	UptimeSeconds    float64          `json:"uptime_seconds"`
	Mode             string           `json:"mode"`
	Policy           string           `json:"policy"`
	ShardCount       int              `json:"shard_count"`
	Queries          int64            `json:"queries"`
	Fanouts          int64            `json:"fanouts"`
	PartialResponses int64            `json:"partial_responses"`
	StrictErrors     int64            `json:"strict_errors"`
	Promotions       int64            `json:"promotions"`
	Shards           []shardStatsWire `json:"shards"`
}

func (co *Coordinator) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := coordinatorStats{
		UptimeSeconds:    time.Since(co.start).Seconds(),
		Mode:             "coordinator",
		Policy:           co.cfg.DegradePolicy.String(),
		ShardCount:       len(co.clients),
		Queries:          co.queries.Load(),
		Fanouts:          co.fanouts.Load(),
		PartialResponses: co.partials.Load(),
		StrictErrors:     co.strictErrors.Load(),
	}
	for _, c := range co.clients {
		reading := ""
		if s := c.steer.Load(); s != nil {
			reading = *s
		}
		st.Promotions += c.promotions.Load()
		st.Shards = append(st.Shards, shardStatsWire{
			ID:           c.shard.ID,
			URL:          c.shard.URL,
			ActiveURL:    c.activeURL(),
			Replicas:     c.shard.Replicas,
			ReadingFrom:  reading,
			Promotions:   c.promotions.Load(),
			SteeredReads: c.steered.Load(),
			Healthy:      c.healthy.Load(),
			Breaker:      c.brk.State(),
			BreakerOpens: c.brk.Opens(),
			Requests:     c.requests.Load(),
			Retries:      c.retries.Load(),
			Hedges:       c.hedges.Load(),
			HedgeWins:    c.hedgeWins.Load(),
			Failures:     c.failures.Load(),
			FastFails:    c.fastFails.Load(),
			Probes:       c.probes.Load(),
			ProbeFails:   c.probeFail.Load(),
		})
	}
	api.WriteJSON(w, http.StatusOK, st)
}

func (co *Coordinator) handleUnsupported(w http.ResponseWriter, _ *http.Request) {
	co.writeError(w, http.StatusNotImplemented, "not_supported_on_coordinator",
		fmt.Errorf("endpoint not supported in coordinator mode (query each shard directly)"), nil)
}

// --- Catalog endpoints ----------------------------------------------------

func (co *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := co.budget(r, 0)
	defer cancel()
	names := make(map[string]bool)
	var mu sync.Mutex
	errs := co.fanOut(func(i int, c *client) error {
		var out struct {
			Collections []string `json:"collections"`
		}
		if err := c.call(ctx, http.MethodGet, "/collections", nil, &out, true); err != nil {
			return err
		}
		mu.Lock()
		for _, n := range out.Collections {
			names[n] = true
		}
		mu.Unlock()
		return nil
	})
	if len(missedOf(errs)) == len(co.clients) {
		status, code := shardCallStatus(ctx, firstErr(errs))
		co.writeError(w, status, code, fmt.Errorf("no shard reachable: %w", firstErr(errs)), missedOf(errs))
		return
	}
	list := make([]string, 0, len(names))
	for n := range names {
		list = append(list, n)
	}
	slices.Sort(list)
	api.WriteJSON(w, http.StatusOK, map[string][]string{"collections": list})
}

func (co *Coordinator) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req api.CreateRequest
	if err := api.DecodeBody(w, r, maxBodyBytes, &req); err != nil {
		co.writeError(w, http.StatusBadRequest, "", err, nil)
		return
	}
	name := r.PathValue("name")
	ctx, cancel := co.budget(r, 0)
	defer cancel()
	body, _ := api.Marshal(&req)
	created := make([]bool, len(co.clients))
	errs := co.fanOut(func(i int, c *client) error {
		var out api.CreateResponse
		if err := c.call(ctx, http.MethodPut, "/collections/"+name, body, &out, false); err != nil {
			return err
		}
		created[i] = out.Created
		return nil
	})
	if missed := missedOf(errs); len(missed) > 0 {
		// Create must land on every shard: a collection that exists on a
		// subset would silently lose the missing shards' slice of every
		// future ingest. PUT is idempotent — the client simply retries.
		status, code := shardCallStatus(ctx, firstErr(errs))
		co.writeError(w, status, code,
			fmt.Errorf("create %q incomplete, retry: %w", name, firstErr(errs)), missed)
		return
	}
	anyCreated := false
	for _, c := range created {
		anyCreated = anyCreated || c
	}
	status := http.StatusOK
	if anyCreated {
		status = http.StatusCreated
	}
	api.WriteJSON(w, status, api.CreateResponse{Name: name, Dims: req.Dims, Created: anyCreated})
}

func (co *Coordinator) handleDrop(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ctx, cancel := co.budget(r, 0)
	defer cancel()
	notFound := 0
	var mu sync.Mutex
	errs := co.fanOut(func(i int, c *client) error {
		err := c.call(ctx, http.MethodDelete, "/collections/"+name, nil, nil, false)
		var se *StatusError
		if errors.As(err, &se) && se.Status == http.StatusNotFound {
			mu.Lock()
			notFound++
			mu.Unlock()
			return nil
		}
		return err
	})
	co.colMu.Lock()
	delete(co.nextID, name)
	co.colMu.Unlock()
	if missed := missedOf(errs); len(missed) > 0 {
		status, code := shardCallStatus(ctx, firstErr(errs))
		co.writeError(w, status, code,
			fmt.Errorf("drop %q incomplete, retry: %w", name, firstErr(errs)), missed)
		return
	}
	if notFound == len(co.clients) {
		co.writeError(w, http.StatusNotFound, "", fmt.Errorf("collection not found"), nil)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// shardCollectionStats is the slice of a shard's per-collection stats
// the coordinator consumes and re-serves.
type shardCollectionStats struct {
	Dims     int `json:"dims"`
	Len      int `json:"len"`
	Live     int `json:"live"`
	Segments int `json:"segments"`
}

func (co *Coordinator) handleCollectionStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ctx, cancel := co.budget(r, 0)
	defer cancel()
	per := make([]shardCollectionStats, len(co.clients))
	errs := co.fanOut(func(i int, c *client) error {
		return c.call(ctx, http.MethodGet, "/collections/"+name, nil, &per[i], true)
	})
	if missed := missedOf(errs); len(missed) > 0 {
		status, code := shardCallStatus(ctx, firstErr(errs))
		co.writeError(w, status, code, firstErr(errs), missed)
		return
	}
	total := shardCollectionStats{Dims: per[0].Dims}
	for _, p := range per {
		total.Len += p.Len
		total.Live += p.Live
		total.Segments += p.Segments
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"dims":     total.Dims,
		"len":      total.Len,
		"live":     total.Live,
		"segments": total.Segments,
		"shards":   per,
	})
}

// --- Routed single-vector endpoints ---------------------------------------

func (co *Coordinator) handleGetVector(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	g, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		co.writeError(w, http.StatusBadRequest, "", fmt.Errorf("bad vector id: %w", err), nil)
		return
	}
	if g < 0 {
		co.writeError(w, http.StatusNotFound, "", fmt.Errorf("id %d outside collection", g), nil)
		return
	}
	ctx, cancel := co.budget(r, 0)
	defer cancel()
	owner := co.topo.Owner(g)
	var out api.VectorResponse
	path := fmt.Sprintf("/collections/%s/vectors/%d", name, co.topo.Local(g))
	if err := co.clients[owner].call(ctx, http.MethodGet, path, nil, &out, true); err != nil {
		status, code := shardCallStatus(ctx, err)
		co.writeError(w, status, code, err, nil)
		return
	}
	api.WriteJSON(w, http.StatusOK, api.VectorResponse{ID: g, Vector: out.Vector})
}

func (co *Coordinator) handleDeleteVector(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	g, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		co.writeError(w, http.StatusBadRequest, "", fmt.Errorf("bad vector id: %w", err), nil)
		return
	}
	if g < 0 {
		co.writeError(w, http.StatusNotFound, "", fmt.Errorf("id %d outside collection", g), nil)
		return
	}
	ctx, cancel := co.budget(r, 0)
	defer cancel()
	owner := co.topo.Owner(g)
	path := fmt.Sprintf("/collections/%s/vectors/%d", name, co.topo.Local(g))
	if err := co.clients[owner].call(ctx, http.MethodDelete, path, nil, nil, false); err != nil {
		status, code := shardCallStatus(ctx, err)
		co.writeError(w, status, code, err, nil)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- Ingest ---------------------------------------------------------------

// nextGlobal returns the next global id for name, syncing from the
// shards' lengths when the coordinator has no cached counter (first
// touch, restart, or a previous partial failure). The sync also verifies
// the shards' lengths are consistent with the round-robin layout;
// anything else means writes bypassed the coordinator or a shard lost
// acknowledged data — reported as topology drift rather than silently
// mis-routing every future id. Callers hold colMu.
func (co *Coordinator) nextGlobal(ctx context.Context, name string) (int, error) {
	if next, ok := co.nextID[name]; ok {
		return next, nil
	}
	lens := make([]int, len(co.clients))
	errs := co.fanOut(func(i int, c *client) error {
		var st shardCollectionStats
		if err := c.call(ctx, http.MethodGet, "/collections/"+name, nil, &st, true); err != nil {
			return err
		}
		lens[i] = st.Len
		return nil
	})
	if err := firstErr(errs); err != nil {
		return 0, err
	}
	total := 0
	for _, l := range lens {
		total += l
	}
	for s, l := range lens {
		if want := co.topo.LocalLen(s, total); l != want {
			return 0, &driftError{fmt.Errorf(
				"shard %d holds %d vectors of %q, round-robin layout over %d total wants %d", s, l, name, total, want)}
		}
	}
	co.nextID[name] = total
	return total, nil
}

// driftError marks a topology-drift failure (shard contents inconsistent
// with the round-robin layout).
type driftError struct{ err error }

func (e *driftError) Error() string { return "topology drift: " + e.err.Error() }
func (e *driftError) Unwrap() error { return e.err }

func (co *Coordinator) handleIngest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req api.IngestRequest
	if err := api.DecodeBody(w, r, maxBodyBytes, &req); err != nil {
		co.writeError(w, http.StatusBadRequest, "", err, nil)
		return
	}
	var vectors [][]float64
	switch {
	case len(req.Vector) > 0 && len(req.Vectors) > 0:
		co.writeError(w, http.StatusBadRequest, "", fmt.Errorf("set either vector or vectors, not both"), nil)
		return
	case len(req.Vector) > 0:
		vectors = [][]float64{req.Vector}
	case len(req.Vectors) > 0:
		vectors = req.Vectors
	default:
		co.writeError(w, http.StatusBadRequest, "", fmt.Errorf("vector or vectors is required"), nil)
		return
	}
	ctx, cancel := co.budget(r, 0)
	defer cancel()

	// Ingests serialize on colMu: global ids are assigned round-robin in
	// arrival order, and each shard must receive its sub-batches in that
	// same order for its local ids to stay in lockstep.
	co.colMu.Lock()
	defer co.colMu.Unlock()
	next, err := co.nextGlobal(ctx, name)
	if err != nil {
		var de *driftError
		if errors.As(err, &de) {
			co.writeError(w, http.StatusConflict, "topology_drift", err, nil)
			return
		}
		status, code := shardCallStatus(ctx, err)
		co.writeError(w, status, code, err, nil)
		return
	}

	// Split the batch: global id next+i → shard (next+i) mod N, keeping
	// arrival order inside each sub-batch.
	sub := make([][][]float64, len(co.clients))
	firstLocal := make([]int, len(co.clients))
	for i := range firstLocal {
		firstLocal[i] = -1
	}
	for i, v := range vectors {
		g := next + i
		s := co.topo.Owner(g)
		if firstLocal[s] < 0 {
			firstLocal[s] = co.topo.Local(g)
		}
		sub[s] = append(sub[s], v)
	}

	drift := make([]bool, len(co.clients))
	errs := co.fanOut(func(i int, c *client) error {
		if len(sub[i]) == 0 {
			return nil
		}
		body, _ := api.Marshal(&api.IngestRequest{Vectors: sub[i]})
		var out api.IngestResponse
		// Not hedged: ingest is not idempotent — a duplicate landing would
		// shift every later id.
		if err := c.call(ctx, http.MethodPost, "/collections/"+name+"/vectors", body, &out, false); err != nil {
			return err
		}
		if out.FirstID != firstLocal[i] {
			drift[i] = true
			return &driftError{fmt.Errorf("shard %d assigned local id %d, layout wants %d", i, out.FirstID, firstLocal[i])}
		}
		return nil
	})
	if missed := missedOf(errs); len(missed) > 0 {
		// Some shards may have committed their slice: the cached counter
		// is no longer trustworthy, so drop it — the next ingest resyncs
		// from shard lengths (and reports drift if the layout broke).
		delete(co.nextID, name)
		err := firstErr(errs)
		for _, i := range missed {
			if drift[i] {
				co.writeError(w, http.StatusConflict, "topology_drift", errs[i], missed)
				return
			}
		}
		status, code := shardCallStatus(ctx, err)
		co.writeError(w, status, code,
			fmt.Errorf("ingest incomplete (%d/%d shards missed): %w", len(missed), len(co.clients), err), missed)
		return
	}
	co.nextID[name] = next + len(vectors)
	api.WriteJSON(w, http.StatusOK, api.IngestResponse{FirstID: next, Count: len(vectors)})
}

// --- Query fan-out --------------------------------------------------------

// resolveSpec validates a wire spec and resolves query-by-example
// against the owning shard, returning a spec ready to forward (explicit
// query vector, no id, no policy).
func (co *Coordinator) resolveSpec(ctx context.Context, name string, wq api.QuerySpec) (api.QuerySpec, int, error) {
	if wq.K < 1 {
		return wq, http.StatusBadRequest, fmt.Errorf("k must be >= 1")
	}
	if _, err := bond.ParseCriterion(wq.Criterion); err != nil {
		return wq, http.StatusBadRequest, err
	}
	switch {
	case len(wq.Query) > 0 && wq.ID != nil:
		return wq, http.StatusBadRequest, fmt.Errorf("set either query or id, not both")
	case wq.ID != nil:
		g := *wq.ID
		if g < 0 {
			return wq, http.StatusBadRequest, fmt.Errorf("id %d outside collection", g)
		}
		var out api.VectorResponse
		path := fmt.Sprintf("/collections/%s/vectors/%d", name, co.topo.Local(g))
		if err := co.clients[co.topo.Owner(g)].call(ctx, http.MethodGet, path, nil, &out, true); err != nil {
			// Without the example vector nothing can be served — not even
			// partially — so this is an error under every policy.
			status, _ := shardCallStatus(ctx, err)
			return wq, status, fmt.Errorf("resolve query-by-example id %d: %w", g, err)
		}
		wq.Query = out.Vector
		wq.ID = nil
	case len(wq.Query) == 0:
		return wq, http.StatusBadRequest, fmt.Errorf("query vector (or id) is required")
	}
	wq.Policy = ""
	return wq, 0, nil
}

// policyOf resolves the effective degradation policy for a query.
func (co *Coordinator) policyOf(wq api.QuerySpec) (Policy, error) {
	if wq.Policy == "" {
		return co.cfg.DegradePolicy, nil
	}
	return ParsePolicy(wq.Policy)
}

// mergeShardResponses exact-merges per-shard responses (nil entries =
// missed shards) into one global response: shard-local ids are rebased
// into the global id space and the ranked lists merged with the
// score-then-id tie-break, so the answer is byte-identical to a single
// node holding all the data. Work stats sum; Truncated ORs.
func (co *Coordinator) mergeShardResponses(k int, largest bool, per []*api.QueryResponse) api.QueryResponse {
	lists := make([][]topk.Result, 0, len(per))
	var out api.QueryResponse
	for s, resp := range per {
		if resp == nil {
			continue
		}
		list := make([]topk.Result, len(resp.Results))
		for i, n := range resp.Results {
			list[i] = topk.Result{ID: co.topo.Global(s, n.ID), Score: n.Score}
		}
		lists = append(lists, list)
		out.Stats.ValuesScanned += resp.Stats.ValuesScanned
		out.Stats.FinalCandidates += resp.Stats.FinalCandidates
		out.Stats.SegmentsSearched += resp.Stats.SegmentsSearched
		out.Stats.SegmentsSkipped += resp.Stats.SegmentsSkipped
		out.Truncated = out.Truncated || resp.Truncated
	}
	merged := streammerge.MergeRanked(k, largest, lists...)
	out.Results = make([]api.Neighbor, len(merged))
	for i, r := range merged {
		out.Results[i] = api.Neighbor{ID: r.ID, Score: r.Score}
	}
	return out
}

func (co *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var wq api.QuerySpec
	if err := api.DecodeBody(w, r, maxBodyBytes, &wq); err != nil {
		co.writeError(w, http.StatusBadRequest, "", err, nil)
		return
	}
	policy, err := co.policyOf(wq)
	if err != nil {
		co.writeError(w, http.StatusBadRequest, "", err, nil)
		return
	}
	ctx, cancel := co.budget(r, wq.TimeoutMs)
	defer cancel()
	co.queries.Add(1)
	spec, status, err := co.resolveSpec(ctx, name, wq)
	if err != nil {
		co.writeError(w, status, "", err, nil)
		return
	}
	resp, status, code, missed, err := co.fanQuery(ctx, name, spec, policy)
	if err != nil {
		co.writeError(w, status, code, err, missed)
		return
	}
	co.writeAnswer(w, &resp)
}

// fanQuery fans one resolved spec out to every shard and merges under
// the given policy.
func (co *Coordinator) fanQuery(ctx context.Context, name string, spec api.QuerySpec, policy Policy) (api.QueryResponse, int, string, []int, error) {
	largest := mergeLargest(spec.Criterion)
	spec.TimeoutMs = remainingMs(ctx)
	body, _ := api.Marshal(&spec)
	per := make([]*api.QueryResponse, len(co.clients))
	errs := co.fanOut(func(i int, c *client) error {
		var out api.QueryResponse
		if err := c.call(ctx, http.MethodPost, "/collections/"+name+"/query", body, &out, true); err != nil {
			return err
		}
		per[i] = &out
		return nil
	})
	missed := missedOf(errs)
	if len(missed) > 0 {
		err := firstErr(errs)
		if policy == Strict || len(missed) == len(co.clients) {
			co.strictErrors.Add(1)
			status, code := shardCallStatus(ctx, err)
			return api.QueryResponse{}, status, code, missed,
				fmt.Errorf("%d/%d shards missed: %w", len(missed), len(co.clients), err)
		}
		co.partials.Add(1)
		co.logf("coordinator: degrading to partial (%d/%d shards missed): %v", len(missed), len(co.clients), err)
	}
	out := co.mergeShardResponses(spec.K, largest, per)
	if len(missed) > 0 {
		out.Partial = true
		out.MissedShards = missed
	}
	return out, http.StatusOK, "", nil, nil
}

func (co *Coordinator) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req api.BatchRequest
	if err := api.DecodeBody(w, r, maxBodyBytes, &req); err != nil {
		co.writeError(w, http.StatusBadRequest, "", err, nil)
		return
	}
	if len(req.Queries) == 0 {
		co.writeError(w, http.StatusBadRequest, "", fmt.Errorf("queries is required"), nil)
		return
	}
	// One budget for the whole batch, from the largest per-query timeout
	// (each shard bounds individual queries with its own deadline).
	maxTimeout := 0
	for _, wq := range req.Queries {
		if wq.TimeoutMs > maxTimeout {
			maxTimeout = wq.TimeoutMs
		}
	}
	ctx, cancel := co.budget(r, maxTimeout)
	defer cancel()

	// The whole batch degrades under one policy: mixing strict and
	// partial queries in one fan-out would force the strict ones to fail
	// the batch anyway.
	policy := co.cfg.DegradePolicy
	specs := make([]api.QuerySpec, len(req.Queries))
	largest := make([]bool, len(req.Queries))
	for i, wq := range req.Queries {
		p, err := co.policyOf(wq)
		if err != nil {
			co.writeError(w, http.StatusBadRequest, "", fmt.Errorf("query %d: %w", i, err), nil)
			return
		}
		if wq.Policy != "" {
			policy = p
		}
		spec, status, err := co.resolveSpec(ctx, name, wq)
		if err != nil {
			co.writeError(w, status, "", fmt.Errorf("query %d: %w", i, err), nil)
			return
		}
		spec.TimeoutMs = remainingMs(ctx)
		specs[i] = spec
		largest[i] = mergeLargest(spec.Criterion)
	}
	co.queries.Add(int64(len(specs)))

	body, _ := api.Marshal(&api.BatchRequest{Queries: specs})
	per := make([]*api.BatchResponse, len(co.clients))
	errs := co.fanOut(func(i int, c *client) error {
		var out api.BatchResponse
		if err := c.call(ctx, http.MethodPost, "/collections/"+name+"/query/batch", body, &out, true); err != nil {
			return err
		}
		if len(out.Results) != len(specs) {
			return fmt.Errorf("shard %d answered %d results for %d queries", i, len(out.Results), len(specs))
		}
		per[i] = &out
		return nil
	})
	missed := missedOf(errs)
	if len(missed) > 0 {
		err := firstErr(errs)
		if policy == Strict || len(missed) == len(co.clients) {
			co.strictErrors.Add(1)
			status, code := shardCallStatus(ctx, err)
			co.writeError(w, status, code,
				fmt.Errorf("%d/%d shards missed: %w", len(missed), len(co.clients), err), missed)
			return
		}
		co.partials.Add(1)
		co.logf("coordinator: degrading batch to partial (%d/%d shards missed): %v", len(missed), len(co.clients), err)
	}
	out := api.BatchResponse{Results: make([]api.QueryResponse, len(specs))}
	perQuery := make([]*api.QueryResponse, len(co.clients))
	for q := range specs {
		for s := range co.clients {
			if per[s] == nil {
				perQuery[s] = nil
			} else {
				perQuery[s] = &per[s].Results[q]
			}
		}
		out.Results[q] = co.mergeShardResponses(specs[q].K, largest[q], perQuery)
		if len(missed) > 0 {
			out.Results[q].Partial = true
			out.Results[q].MissedShards = missed
		}
	}
	co.writeAnswer(w, &out)
}

// mergeLargest returns the merge direction for a criterion name the
// caller has already validated: similarity criteria rank descending,
// distance criteria ascending.
func mergeLargest(criterion string) bool {
	crit, _ := bond.ParseCriterion(criterion)
	return !crit.Distance()
}

// remainingMs converts the context's remaining budget into the
// timeout_ms forwarded to shards (minimum 1: zero would mean "no
// deadline" on the shard).
func remainingMs(ctx context.Context) int {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := int(time.Until(dl) / time.Millisecond)
	if ms < 1 {
		ms = 1
	}
	return ms
}
