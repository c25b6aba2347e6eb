package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bond/internal/api"
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
	// the loop; ProbeNow can still be driven manually). The prober asks
	// each shard's /healthz.
	ProbeInterval time.Duration
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
	// inject httptest clients); nil uses a client over a transport of its
	// own that keeps shardIdleConns idle connections per shard.
	HTTPClient *http.Client
	// Logf receives one line per degraded or failed fan-out (nil =
	// silent).
	Logf func(format string, args ...any)
}

// Coordinator is the api.Backend that serves the bondd HTTP API over a
// static topology of shards: ingest, delete, and point reads hash-route
// by vector id to the owning shard; queries fan out to every shard and
// exact-merge. See the package comment for the placement scheme and
// fault-tolerance model.
type Coordinator struct {
	cfg     Config
	topo    *Topology
	clients []*client
	mux     *http.ServeMux
	start   time.Time

	// colMu guards layouts, and serializes ingest fan-outs per process so
	// concurrent ingests cannot interleave their sub-batches at a shard
	// (which would break the round-robin id layout both routing and the
	// single-node equivalence depend on).
	colMu   sync.Mutex
	layouts map[string]layout // absent = resync from the shards' stats

	queries      atomic.Int64 // queries served (batch counts each query)
	fanouts      atomic.Int64 // shard calls fanned out
	partials     atomic.Int64 // responses degraded to partial
	strictErrors atomic.Int64 // strict-mode fan-outs failed on a missed shard

	stop       chan struct{} // closed by Close to stop the prober
	proberDone chan struct{} // closed when the prober loop exits
	own        *http.Client  // the default client, whose idle connections Close drops
}

// layout is what the coordinator caches of a collection between ingests.
type layout struct {
	next int // the next global id
	dims int // the dims every ingested vector must have
}

// shardIdleConns is how many idle connections the default client keeps
// per shard. http.DefaultTransport keeps two, so under more concurrent
// requests than that every fan-out beyond the second dials a new
// connection and drops it afterwards; 16 covers the concurrency the
// end-to-end benchmark drives a coordinator at.
const shardIdleConns = 16

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
	co := &Coordinator{
		cfg:        cfg,
		topo:       cfg.Topology,
		start:      time.Now(),
		layouts:    map[string]layout{},
		stop:       make(chan struct{}),
		proberDone: make(chan struct{}),
	}
	hc := cfg.HTTPClient
	if hc == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = shardIdleConns
		hc = &http.Client{Transport: tr}
		co.own = hc
	}
	for _, s := range cfg.Topology.Shards {
		brk := NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
		co.clients = append(co.clients, newClient(s, hc, cfg.Envelope, brk))
	}
	co.mux = api.NewMux(co, 0, func(format string, args ...any) {
		co.logf("coordinator: "+format, args...)
	})
	if cfg.ProbeInterval > 0 {
		go co.proberLoop(cfg.ProbeInterval)
	} else {
		close(co.proberDone)
	}
	return co, nil
}

// Handler returns the coordinator's HTTP handler.
func (co *Coordinator) Handler() http.Handler { return co.mux }

// Close stops the health prober and drops the default client's idle
// connections.
func (co *Coordinator) Close() error {
	close(co.stop)
	<-co.proberDone
	if co.own != nil {
		co.own.CloseIdleConnections()
	}
	return nil
}

func (co *Coordinator) logf(format string, args ...any) {
	if co.cfg.Logf != nil {
		co.cfg.Logf(format, args...)
	}
}

// --- Helpers --------------------------------------------------------------

// refusal returns the first shard answer among errs that refused the
// request itself — a 4xx other than 429 — or nil.
func refusal(errs []error) *api.StatusError {
	for _, err := range errs {
		var se *api.StatusError
		if err != nil && !transientError(err) && errors.As(err, &se) {
			return se
		}
	}
	return nil
}

// shardFailure is the coordinator's answer when shard calls failed. A
// shard that refused the request itself passes through as it answered:
// the request was at fault, and blaming missed shards would tell the
// client a healthy cluster is down. Anything else is a 504 when the
// deadline ran out, a shard's own 429 once retries gave up, or a 502;
// the message format gets the first error as its last argument, and
// missed names the shards missed.
func shardFailure(ctx context.Context, errs []error, missed []int, format string, args ...any) error {
	if se := refusal(errs); se != nil {
		return se
	}
	err := firstErr(errs)
	fail := &api.StatusError{Status: http.StatusBadGateway, Code: "shard_unavailable", Msg: fmt.Sprintf(format, append(args, err)...), MissedShards: missed}
	var se *api.StatusError
	switch {
	case ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded):
		fail.Status, fail.Code = http.StatusGatewayTimeout, "deadline"
	case errors.As(err, &se) && se.Status == http.StatusTooManyRequests:
		fail.Status, fail.Code = se.Status, se.Code
	}
	return fail
}

// budget returns the fan-out deadline context for a request: timeout_ms
// when the spec set one, the configured default otherwise.
func (co *Coordinator) budget(ctx context.Context, timeoutMs int) (context.Context, context.CancelFunc) {
	d := co.cfg.DefaultTimeout
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	return context.WithTimeout(ctx, d)
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

// fanCall makes one call on every shard, decoding shard i's answer into
// the returned slice's i-th entry, and returns the per-shard errors too.
func fanCall[T any](co *Coordinator, ctx context.Context, method, path string, body []byte, hedge bool) ([]T, []error) {
	out := make([]T, len(co.clients))
	return out, co.fanOut(func(i int, c *client) error {
		return c.call(ctx, method, path, api.JSONType, body, &out[i], hedge)
	})
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

// errUnsupported answers EXPLAIN and manual re-clustering, which the
// coordinator does not serve through the fan-out.
var errUnsupported = &api.StatusError{
	Status: http.StatusNotImplemented,
	Code:   "not_supported_on_coordinator",
	Msg:    "endpoint not supported in coordinator mode (query each shard directly)",
}

// Admit refuses EXPLAIN and re-clustering for every input. Everything
// else the shards judge, through the call itself.
func (co *Coordinator) Admit(op api.Op, _ string) error {
	if op == api.OpExplain || op == api.OpRecluster {
		return errUnsupported
	}
	return nil
}

// Explain is never reached: Admit refuses the route.
func (co *Coordinator) Explain(context.Context, string, *api.QuerySpec) (*api.ExplainResponse, error) {
	return nil, errUnsupported
}

// Recluster is never reached: Admit refuses the route.
func (co *Coordinator) Recluster(context.Context, string, *api.ReclusterRequest) (*api.ReclusterResponse, error) {
	return nil, errUnsupported
}

// Ready reports readiness for traffic under the configured default
// policy: strict needs every shard healthy (a query would otherwise
// fail), partial needs at least one (a query can still degrade to the
// survivors).
func (co *Coordinator) Ready() (any, error) {
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
		return nil, &api.StatusError{
			Status:       http.StatusServiceUnavailable,
			Code:         "not_ready",
			Msg:          fmt.Sprintf("not ready: %d/%d shards healthy under policy %s", healthy, len(co.clients), co.cfg.DegradePolicy),
			MissedShards: down,
		}
	}
	return map[string]any{"status": "ready", "healthy_shards": healthy}, nil
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

func (co *Coordinator) Stats() any {
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
	return st
}

// --- Catalog endpoints ----------------------------------------------------

func (co *Coordinator) List(ctx context.Context) ([]string, error) {
	ctx, cancel := co.budget(ctx, 0)
	defer cancel()
	per, errs := fanCall[struct {
		Collections []string `json:"collections"`
	}](co, ctx, http.MethodGet, "/collections", nil, true)
	if missed := missedOf(errs); len(missed) == len(co.clients) {
		return nil, shardFailure(ctx, errs, missed, "no shard reachable: %v")
	}
	list := []string{}
	for i, p := range per {
		if errs[i] == nil {
			list = append(list, p.Collections...)
		}
	}
	slices.Sort(list)
	return slices.Compact(list), nil
}

func (co *Coordinator) Create(ctx context.Context, name string, req *api.CreateRequest) (*api.CreateResponse, error) {
	ctx, cancel := co.budget(ctx, 0)
	defer cancel()
	body, _ := api.Marshal(req)
	per, errs := fanCall[api.CreateResponse](co, ctx, http.MethodPut, "/collections/"+name, body, false)
	if missed := missedOf(errs); len(missed) > 0 {
		// Create must land on every shard: a collection that exists on a
		// subset would silently lose the missing shards' slice of every
		// future ingest. PUT is idempotent — the client simply retries.
		return nil, shardFailure(ctx, errs, missed, "create %q incomplete, retry: %v", name)
	}
	created := slices.ContainsFunc(per, func(r api.CreateResponse) bool { return r.Created })
	return &api.CreateResponse{Name: name, Dims: req.Dims, Created: created}, nil
}

// Drop answers 404 only when no shard held the collection.
func (co *Coordinator) Drop(ctx context.Context, name string) error {
	ctx, cancel := co.budget(ctx, 0)
	defer cancel()
	errs := co.fanOut(func(i int, c *client) error {
		return c.call(ctx, http.MethodDelete, "/collections/"+name, "", nil, nil, false)
	})
	co.colMu.Lock()
	delete(co.layouts, name)
	co.colMu.Unlock()
	var notFound *api.StatusError
	gone := 0
	for i, err := range errs {
		if errors.As(err, &notFound) && notFound.Status == http.StatusNotFound {
			errs[i] = nil
			gone++
		}
	}
	if missed := missedOf(errs); len(missed) > 0 {
		return shardFailure(ctx, errs, missed, "drop %q incomplete, retry: %v", name)
	}
	if gone == len(co.clients) {
		return notFound
	}
	return nil
}

// shardCollectionStats is the slice of a shard's per-collection stats
// the coordinator consumes and re-serves.
type shardCollectionStats struct {
	Dims     int `json:"dims"`
	Len      int `json:"len"`
	Live     int `json:"live"`
	Segments int `json:"segments"`
}

func (co *Coordinator) Describe(ctx context.Context, name string) (any, error) {
	ctx, cancel := co.budget(ctx, 0)
	defer cancel()
	per, errs := fanCall[shardCollectionStats](co, ctx, http.MethodGet, "/collections/"+name, nil, true)
	if missed := missedOf(errs); len(missed) > 0 {
		return nil, shardFailure(ctx, errs, missed, "%v")
	}
	total := shardCollectionStats{Dims: per[0].Dims}
	for _, p := range per {
		total.Len += p.Len
		total.Live += p.Live
		total.Segments += p.Segments
	}
	return map[string]any{
		"dims":     total.Dims,
		"len":      total.Len,
		"live":     total.Live,
		"segments": total.Segments,
		"shards":   per,
	}, nil
}

// --- Routed single-vector endpoints ---------------------------------------

// atID runs one call about global id g on the shard that owns it, under
// the shard's local id. An id outside the collection is answered as a
// single node answers it — with status, naming g — but without the
// collection's length, which only a fan-out could tell. Any other failure
// is returned for the caller to report.
func (co *Coordinator) atID(ctx context.Context, method, name string, g, status int, out any) error {
	if g >= 0 {
		path := fmt.Sprintf("/collections/%s/vectors/%d", name, co.topo.Local(g))
		err := co.clients[co.topo.Owner(g)].call(ctx, method, path, "", nil, out, method == http.MethodGet)
		var se *api.StatusError
		if !errors.As(err, &se) || se.Status != http.StatusNotFound || se.Msg == api.ErrNotFound.Error() {
			return err
		}
	}
	return api.Errorf(status, "id %d outside collection", g)
}

func (co *Coordinator) Vector(ctx context.Context, name string, g int) (*api.VectorResponse, error) {
	ctx, cancel := co.budget(ctx, 0)
	defer cancel()
	out := &api.VectorResponse{}
	if err := co.atID(ctx, http.MethodGet, name, g, http.StatusNotFound, out); err != nil {
		return nil, shardFailure(ctx, []error{err}, nil, "%v")
	}
	out.ID = g
	return out, nil
}

func (co *Coordinator) DeleteVector(ctx context.Context, name string, g int) error {
	ctx, cancel := co.budget(ctx, 0)
	defer cancel()
	if err := co.atID(ctx, http.MethodDelete, name, g, http.StatusNotFound, nil); err != nil {
		return shardFailure(ctx, []error{err}, nil, "%v")
	}
	return nil
}

// --- Ingest ---------------------------------------------------------------

// layoutOf returns name's cached layout, syncing it from the shards'
// stats when the coordinator has none (first touch, restart, or a
// previous partial failure). The sync also verifies the shards' lengths
// are consistent with the round-robin layout; anything else means writes
// bypassed the coordinator or a shard lost acknowledged data — reported
// as topology drift rather than silently mis-routing every future id.
// Callers hold colMu.
func (co *Coordinator) layoutOf(ctx context.Context, name string) (layout, error) {
	if l, ok := co.layouts[name]; ok {
		return l, nil
	}
	per, errs := fanCall[shardCollectionStats](co, ctx, http.MethodGet, "/collections/"+name, nil, true)
	if err := firstErr(errs); err != nil {
		return layout{}, shardFailure(ctx, errs, nil, "%v")
	}
	l := layout{dims: per[0].Dims}
	for _, p := range per {
		l.next += p.Len
	}
	for s, p := range per {
		if want := co.topo.LocalLen(s, l.next); p.Len != want {
			return layout{}, driftError(nil, "shard %d holds %d vectors of %q, round-robin layout over %d total wants %d", s, p.Len, name, l.next, want)
		}
	}
	co.layouts[name] = l
	return l, nil
}

// driftError is a 409 topology_drift: shard contents inconsistent with
// the round-robin layout.
func driftError(missed []int, format string, args ...any) error {
	return &api.StatusError{
		Status:       http.StatusConflict,
		Code:         "topology_drift",
		Msg:          "topology drift: " + fmt.Sprintf(format, args...),
		MissedShards: missed,
	}
}

// Ingest checks every vector against the collection's dims before any
// shard is called, so a ragged batch cannot land on some shards and not
// others; then it splits the batch round-robin and fans it out.
func (co *Coordinator) Ingest(ctx context.Context, name string, vectors [][]float64) (*api.IngestResponse, error) {
	ctx, cancel := co.budget(ctx, 0)
	defer cancel()

	// Ingests serialize on colMu: global ids are assigned round-robin in
	// arrival order, and each shard must receive its sub-batches in that
	// same order for its local ids to stay in lockstep.
	co.colMu.Lock()
	defer co.colMu.Unlock()
	l, err := co.layoutOf(ctx, name)
	if err != nil {
		return nil, err
	}
	if err := api.CheckDims(name, l.dims, vectors); err != nil {
		return nil, err
	}

	// Split the batch: global id next+i → shard (next+i) mod N, keeping
	// arrival order inside each sub-batch.
	sub := make([][][]float64, len(co.clients))
	firstLocal := make([]int, len(co.clients))
	for i := range firstLocal {
		firstLocal[i] = -1
	}
	for i, v := range vectors {
		g := l.next + i
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
		// The sub-batch crosses as raw float64 frames, in a buffer of its
		// own: net/http may go on reading a request body after Do returns,
		// so a pooled one could not be released when the call returns.
		body := api.AppendVectors(nil, sub[i])
		var out api.IngestResponse
		// Not hedged: ingest is not idempotent — a duplicate landing would
		// shift every later id.
		if err := c.call(ctx, http.MethodPost, "/collections/"+name+"/vectors", api.FramesType, body, &out, false); err != nil {
			return err
		}
		if out.FirstID != firstLocal[i] {
			drift[i] = true
			return fmt.Errorf("shard %d assigned local id %d, layout wants %d", i, out.FirstID, firstLocal[i])
		}
		return nil
	})
	if missed := missedOf(errs); len(missed) > 0 {
		// Some shards may have committed their slice: the cached layout is
		// no longer trustworthy, so drop it — the next ingest resyncs from
		// shard lengths (and reports drift if the layout broke).
		delete(co.layouts, name)
		for _, i := range missed {
			if drift[i] {
				return nil, driftError(missed, "%v", errs[i])
			}
		}
		return nil, shardFailure(ctx, errs, missed, "ingest incomplete (%d/%d shards missed): %v", len(missed), len(co.clients))
	}
	l.next += len(vectors)
	co.layouts[name] = l
	return &api.IngestResponse{FirstID: l.next - len(vectors), Count: len(vectors)}, nil
}

// --- Query fan-out --------------------------------------------------------

// resolve checks a wire spec as a single node would (api.ToSpec), reading
// a query-by-example vector from the shard that owns the id, and returns
// it ready to forward — an explicit vector, no id, no policy — with its
// merge direction.
func (co *Coordinator) resolve(ctx context.Context, name string, wq api.QuerySpec) (api.QuerySpec, bool, error) {
	spec, err := api.ToSpec(&wq, func(g int) ([]float64, error) {
		var out api.VectorResponse
		if err := co.atID(ctx, http.MethodGet, name, g, http.StatusBadRequest, &out); err != nil {
			// Without the example vector nothing can be served — not even
			// partially — so this is an error under every policy.
			return nil, shardFailure(ctx, []error{err}, nil, "resolve query-by-example id %d: %v", g)
		}
		return out.Vector, nil
	})
	if err != nil {
		return wq, false, err
	}
	wq.Query, wq.ID, wq.Policy = spec.Query, nil, ""
	return wq, !spec.Criterion.Distance(), nil
}

// policyOf resolves the effective degradation policy for a query.
func (co *Coordinator) policyOf(wq *api.QuerySpec) (Policy, error) {
	if wq.Policy == "" {
		return co.cfg.DegradePolicy, nil
	}
	p, err := ParsePolicy(wq.Policy)
	if err != nil {
		return p, api.WithStatus(http.StatusBadRequest, err)
	}
	return p, nil
}

// mergeShardResponses exact-merges the responses of the shards not
// missed into one global response: shard-local ids are rebased into the
// global id space and the ranked lists merged with the score-then-id
// tie-break, so the answer is byte-identical to a single node holding all
// the data. Work stats sum; Truncated ORs; an answer with missed shards
// is marked partial.
func (co *Coordinator) mergeShardResponses(k int, largest bool, per []api.QueryResponse, missed []int) api.QueryResponse {
	lists := make([][]topk.Result, 0, len(per))
	out := api.QueryResponse{Partial: len(missed) > 0, MissedShards: missed}
	for s := range per {
		if slices.Contains(missed, s) {
			continue
		}
		resp := &per[s]
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
	merged := topk.Merge(k, largest, lists...)
	out.Results = make([]api.Neighbor, len(merged))
	for i, r := range merged {
		out.Results[i] = api.Neighbor{ID: r.ID, Score: r.Score}
	}
	return out
}

// degrade decides a query fan-out under policy and returns the shards it
// missed. A shard's refusal of the request, a strict policy, or no
// survivor at all is an error; otherwise the answer goes out partial over
// the survivors.
func (co *Coordinator) degrade(ctx context.Context, errs []error, policy Policy) ([]int, error) {
	missed := missedOf(errs)
	if len(missed) == 0 {
		return nil, nil
	}
	if se := refusal(errs); se != nil {
		return nil, se
	}
	if policy == Strict || len(missed) == len(co.clients) {
		co.strictErrors.Add(1)
		return nil, shardFailure(ctx, errs, missed, "%d/%d shards missed: %v", len(missed), len(co.clients))
	}
	co.partials.Add(1)
	co.logf("coordinator: degrading to partial (%d/%d shards missed): %v", len(missed), len(co.clients), firstErr(errs))
	return missed, nil
}

func (co *Coordinator) Query(ctx context.Context, name string, wq *api.QuerySpec) (*api.QueryResponse, error) {
	policy, err := co.policyOf(wq)
	if err != nil {
		return nil, err
	}
	ctx, cancel := co.budget(ctx, wq.TimeoutMs)
	defer cancel()
	co.queries.Add(1)
	spec, largest, err := co.resolve(ctx, name, *wq)
	if err != nil {
		return nil, err
	}
	spec.TimeoutMs = remainingMs(ctx)
	body, _ := api.Marshal(&spec)
	per, errs := fanCall[api.QueryResponse](co, ctx, http.MethodPost, "/collections/"+name+"/query", body, true)
	missed, err := co.degrade(ctx, errs, policy)
	if err != nil {
		return nil, err
	}
	out := co.mergeShardResponses(spec.K, largest, per, missed)
	return &out, nil
}

func (co *Coordinator) QueryBatch(ctx context.Context, name string, wqs []api.QuerySpec) (*api.BatchResponse, error) {
	// One budget for the whole batch, from the largest per-query timeout
	// (each shard bounds individual queries with its own deadline).
	maxTimeout := 0
	for _, wq := range wqs {
		maxTimeout = max(maxTimeout, wq.TimeoutMs)
	}
	ctx, cancel := co.budget(ctx, maxTimeout)
	defer cancel()

	// The whole batch degrades under one policy: mixing strict and
	// partial queries in one fan-out would force the strict ones to fail
	// the batch anyway.
	policy := co.cfg.DegradePolicy
	specs := make([]api.QuerySpec, len(wqs))
	largest := make([]bool, len(wqs))
	for i := range wqs {
		p, err := co.policyOf(&wqs[i])
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		if wqs[i].Policy != "" {
			policy = p
		}
		if specs[i], largest[i], err = co.resolve(ctx, name, wqs[i]); err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		specs[i].TimeoutMs = remainingMs(ctx)
	}
	co.queries.Add(int64(len(specs)))

	body, _ := api.Marshal(&api.BatchRequest{Queries: specs})
	per, errs := fanCall[api.BatchResponse](co, ctx, http.MethodPost, "/collections/"+name+"/query/batch", body, true)
	for i := range per {
		if errs[i] == nil && len(per[i].Results) != len(specs) {
			errs[i] = fmt.Errorf("shard %d answered %d results for %d queries", i, len(per[i].Results), len(specs))
		}
	}
	missed, err := co.degrade(ctx, errs, policy)
	if err != nil {
		return nil, err
	}
	out := &api.BatchResponse{Results: make([]api.QueryResponse, len(specs))}
	perQuery := make([]api.QueryResponse, len(co.clients))
	for q := range specs {
		for s := range per {
			if errs[s] == nil {
				perQuery[s] = per[s].Results[q]
			}
		}
		out.Results[q] = co.mergeShardResponses(specs[q].K, largest[q], perQuery, missed)
	}
	return out, nil
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
