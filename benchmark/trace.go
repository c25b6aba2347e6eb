package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bond"
	"bond/internal/api"
)

// The traced run measures the same request at successively deeper public
// entry points — loopback client, handler on a recorder, Collection.Query
// on the server's own collection, kernel replay — so that each layer's
// self time is its rung minus the rungs below it. The rungs are separate
// executions of the same request, not nested in time: a span's start and
// end are that rung's own clock, and nesting is by the parent field.
// Spans inside the program are a later change (ROADMAP item 5).

// minP99Samples is the smallest round a p99 may be read from: ten
// samples beyond the percentile.
const minP99Samples = 1000

// ladderQueries is how many of the run's queries climb the ladder.
const ladderQueries = 256

// span is one rung of one request, as written to trace-<workload>.jsonl.
type span struct {
	Req     int    `json:"req"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Name    string `json:"name"`
	Node    int    `json:"node"`     // which server, for rungs below a coordinator
	StartNs int64  `json:"start_ns"` // since the trace began
	EndNs   int64  `json:"end_ns"`
	// Derived marks a span that was computed, not timed: the kernel
	// replay is cells read × the measured ns per cell.
	Derived bool `json:"derived,omitempty"`
}

// Rung names, outermost first. The shard rungs exist only below a
// coordinator.
const (
	rungClient  = "load.client"
	rungCoord   = "shard.coord_handler"
	rungCall    = "shard.call"
	rungHandler = "server.handler"
	rungCodec   = "api.codec"
	rungQuery   = "bond.query"
	rungKernel  = "kernel.replay"
)

// ladderResult is what one climb over ladderQueries requests yields.
type ladderResult struct {
	spans []span
	// dur holds, per rung, each request's duration in seconds (the
	// slowest node's, for rungs that run once per node).
	dur map[string][]float64
	// plain is the client latency of the same requests with no span
	// bookkeeping around them.
	plain []float64
	// self is the summed self time per rung over all requests; client is
	// the summed client span they should add up to.
	self   map[string]float64
	client float64
}

func (l *ladderResult) p50us(rung string) float64 { return median(l.dur[rung]) * us }

// ladder climbs every rung for each of the first ladderQueries queries
// against st, serially. nsPerCell prices the kernel replay.
func (r *run) ladder(st *stack, nsPerCell float64) (*ladderResult, error) {
	r.setPhase("ladder")
	n := min(ladderQueries, len(r.bodies))
	out := &ladderResult{dur: map[string][]float64{}, self: map[string]float64{}}
	tr := newTransport(1)
	defer tr.CloseIdleConnections()
	c := newConn(tr, &r.t)
	url := queryURL(st.url(), collection)
	path := queryURL("", collection)
	cols := make([]*bond.Collection, len(st.servers))
	for i, srv := range st.servers {
		col, err := srv.Catalog().Get(collection)
		if err != nil {
			return nil, err
		}
		cols[i] = col
	}
	specs := r.specs(servedStrategy)[:n] // what the handler lowers the driver's requests to
	var answer api.QueryResponse

	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := c.query(url, r.bodies[i], &answer); err != nil {
			return nil, err
		}
		out.plain = append(out.plain, time.Since(t0).Seconds())
	}

	// Which rungs sit directly below which.
	children := map[string][]string{
		rungClient:  {rungHandler},
		rungHandler: {rungCodec, rungQuery},
		rungQuery:   {rungKernel},
	}
	if st.co != nil {
		children[rungClient] = []string{rungCoord}
		children[rungCoord] = []string{rungCall}
		children[rungCall] = []string{rungHandler}
	}
	timed := func(fn func()) (time.Time, time.Duration) {
		t0 := time.Now()
		fn()
		return t0, time.Since(t0)
	}
	epoch := time.Now()
	nextID := 1
	for i := 0; i < n; i++ {
		// emit records a span and returns its id.
		emit := func(name string, parent, node int, start time.Time, d time.Duration, derived bool) int {
			id := nextID
			nextID++
			out.spans = append(out.spans, span{
				Req: i, ID: id, Parent: parent, Name: name, Node: node,
				StartNs: start.Sub(epoch).Nanoseconds(), EndNs: start.Add(d).Sub(epoch).Nanoseconds(), Derived: derived,
			})
			return id
		}
		// slowest keeps, per rung, the slowest node's duration for this
		// request: a fan-out waits for it.
		slowest := map[string]float64{}
		note := func(name string, d time.Duration) {
			slowest[name] = max(slowest[name], d.Seconds())
		}
		var err error

		t0, d := timed(func() { err = c.query(url, r.bodies[i], &answer) })
		if err != nil {
			return nil, err
		}
		parent := emit(rungClient, 0, 0, t0, d, false)
		note(rungClient, d)

		if st.co != nil {
			t0, d = timed(func() { _, err = serve(st.co.Handler(), http.MethodPost, path, r.bodies[i]) })
			if err != nil {
				return nil, err
			}
			parent = emit(rungCoord, parent, 0, t0, d, false)
			note(rungCoord, d)
		}
		for node, srv := range st.servers {
			up := parent
			if st.co != nil {
				t0, d = timed(func() { err = c.query(queryURL(st.nodes[node].url, collection), r.bodies[i], &answer) })
				if err != nil {
					return nil, err
				}
				up = emit(rungCall, parent, node, t0, d, false)
				note(rungCall, d)
			}
			var raw []byte
			t0, d = timed(func() { raw, err = serve(srv.Handler(), http.MethodPost, path, r.bodies[i]) })
			if err != nil {
				return nil, err
			}
			handler := emit(rungHandler, up, node, t0, d, false)
			note(rungHandler, d)

			// The handler's JSON work on the same bytes: strict-decode the
			// request, encode the answer it produced.
			var served api.QueryResponse
			if err := json.Unmarshal(raw, &served); err != nil {
				return nil, err
			}
			t0, d = timed(func() {
				var s api.QuerySpec
				if err = decodeStrict(r.bodies[i], &s); err == nil {
					err = json.NewEncoder(io.Discard).Encode(&served)
				}
			})
			if err != nil {
				return nil, err
			}
			emit(rungCodec, handler, node, t0, d, false)
			note(rungCodec, d)

			var res bond.QueryResult
			t0, d = timed(func() { res, err = cols[node].Query(specs[i]) })
			if err != nil {
				return nil, err
			}
			query := emit(rungQuery, handler, node, t0, d, false)
			note(rungQuery, d)

			replay := time.Duration(float64(res.Stats.ValuesScanned) * nsPerCell)
			emit(rungKernel, query, node, t0, replay, true)
			note(rungKernel, replay)
		}

		for name, d := range slowest {
			out.dur[name] = append(out.dur[name], d)
		}
		// Self time: a rung minus the rungs directly below it, never
		// negative (a child rung that ran slower than its parent's
		// separate execution counts in full and shows up as coverage
		// above 1).
		for name, d := range slowest {
			for _, ch := range children[name] {
				d -= slowest[ch]
			}
			out.self[name] += max(d, 0)
		}
		out.client += slowest[rungClient]
	}
	return out, nil
}

func writeSpans(dir, name string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+name+".jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- open loop --------------------------------------------------------------

// openWorkers bounds how many requests the open loop keeps in flight;
// arrivals beyond that wait in a queue, and their wait counts, because
// latency is taken from the time a request was due.
const openWorkers = 32

// openLoop sends queries on a seeded Poisson schedule of rate per second
// for d, regardless of how fast answers come back. It returns the
// achieved rate, the median and p99 latency from due time, and the p99
// of how late the generator itself dispatched — all in ms but the rate.
func (r *run) openLoop(url string, rate float64, d time.Duration) (qps, p50, p99, lateP99 float64) {
	r.setPhase("open-loop")
	rng := rand.New(rand.NewSource(r.seed))
	var due []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			break
		}
		due = append(due, time.Duration(t*float64(time.Second)))
	}
	type job struct {
		i   int
		due time.Time
	}
	// Sized to the whole schedule so the dispatcher never blocks: a slow
	// system must not slow the arrivals down.
	jobs := make(chan job, len(due))
	lat := make([]float64, len(due))
	ok := make([]bool, len(due))
	tr := newTransport(openWorkers)
	defer tr.CloseIdleConnections()
	var wg sync.WaitGroup
	for w := 0; w < openWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn(tr, &r.t)
			var out api.QueryResponse
			for j := range jobs {
				if c.query(url, r.bodies[j.i%len(r.bodies)], &out) == nil {
					lat[j.i], ok[j.i] = ms(time.Since(j.due)), true
				}
			}
		}()
	}
	late := make([]float64, len(due))
	start := time.Now()
	for i, off := range due {
		at := start.Add(off)
		time.Sleep(time.Until(at))
		late[i] = ms(time.Since(at))
		jobs <- job{i, at}
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)
	var done []float64
	for i, l := range lat {
		if ok[i] {
			done = append(done, l)
		}
	}
	done, late = sortedCopy(done), sortedCopy(late)
	return float64(len(done)) / elapsed.Seconds(), percentile(done, 0.50), percentile(done, 0.99), percentile(late, 0.99)
}

// --- coordinator ------------------------------------------------------------

// coordCounters reads the coordinator's own /stats counters.
func (r *run) coordCounters(c *conn, base string) (queries, fanouts, retries float64, err error) {
	raw, err := c.do(http.MethodGet, base+"/stats", nil)
	if err != nil {
		return 0, 0, 0, err
	}
	var st struct {
		Queries float64 `json:"queries"`
		Fanouts float64 `json:"fanouts"`
		Shards  []struct {
			Retries float64 `json:"retries"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return 0, 0, 0, err
	}
	for _, s := range st.Shards {
		retries += s.Retries
	}
	return st.Queries, st.Fanouts, retries, nil
}

// ingestRoute measures what routing an ingest through the coordinator
// costs over handing a shard its share directly: the median latency of
// an ingestBatch-vector request through the coordinator minus that of
// the sub-batch one shard receives, sent straight to that shard. Both go
// to scratch collections, interleaved call by call.
func (r *run) ingestRoute(st *stack) (float64, error) {
	r.setPhase("layer:shard-ingest")
	tr := newTransport(1)
	defer tr.CloseIdleConnections()
	c := newConn(tr, &r.t)
	const viaCoord, direct = "route_coord", "route_direct"
	create := mustJSON(api.CreateRequest{Dims: r.w.dims, SegmentSize: r.w.segSize})
	shard0 := st.nodes[0].url
	if _, err := c.do(http.MethodPut, colURL(st.url(), viaCoord), create); err != nil {
		return 0, err
	}
	if _, err := c.do(http.MethodPut, colURL(shard0, direct), create); err != nil {
		return 0, err
	}
	whole := ingestBodies(r.in.data, ingestBatch)
	share := ingestBodies(r.in.data, ingestBatch/len(st.servers))
	var tCoord, tDirect []float64
	for i := 0; i < 32; i++ {
		t0 := time.Now()
		if _, err := c.do(http.MethodPost, ingestURL(st.url(), viaCoord), whole[i%len(whole)]); err != nil {
			return 0, err
		}
		tCoord = append(tCoord, time.Since(t0).Seconds())
		t0 = time.Now()
		if _, err := c.do(http.MethodPost, ingestURL(shard0, direct), share[i%len(share)]); err != nil {
			return 0, err
		}
		tDirect = append(tDirect, time.Since(t0).Seconds())
	}
	if _, err := c.do(http.MethodDelete, colURL(st.url(), viaCoord), nil); err != nil {
		return 0, err
	}
	if _, err := c.do(http.MethodDelete, colURL(shard0, direct), nil); err != nil {
		return 0, err
	}
	return (median(tCoord) - median(tDirect)) * us, nil
}

// --- the traced run ---------------------------------------------------------

// maintReplayCycles is how many unpaced writer cycles the traced run
// replays to count maintenance actions.
const maintReplayCycles = 100

// tracedRun measures every per-layer metric. It builds two stacks over
// the workload's data — one node, and a coordinator over shards — so
// that every workload reports every layer; the workload's own ladder
// (the one its span file and coverage come from) is the stack its
// end-to-end run uses.
func (r *run) tracedRun(outDir string) (map[string]float64, error) {
	r.prepare()
	m := map[string]float64{}
	ingest := r.setupBodies()
	nodeW, clusterW := r.w, r.w
	nodeW.shards, clusterW.shards = 0, max(r.w.shards, 2)

	node, answers, _, err := r.setup(nodeW, filepath.Join(r.tmp, "node"), ingest)
	if err != nil {
		return nil, err
	}
	defer func() { node.close() }()
	cluster, clusterAnswers, _, err := r.setup(clusterW, filepath.Join(r.tmp, "cluster"), ingest)
	if err != nil {
		return nil, err
	}
	defer func() { cluster.close() }()
	ingest = nil
	mismatches := r.verifyAll(answers, r.expected, r.in.data, 0) +
		r.verifyAll(clusterAnswers, r.expected, r.in.data, 0)

	r.kernelLayer(m)
	col, err := node.servers[0].Catalog().Get(collection)
	if err != nil {
		return nil, err
	}
	if err := r.planLayer(m, col); err != nil {
		return nil, err
	}
	if err := r.bondLayer(m, col); err != nil {
		return nil, err
	}
	if err := r.apiLayer(m, answers); err != nil {
		return nil, err
	}
	r.topkLayer(m, clusterW.shards)

	// Ladders: the single node gives the server layer, the cluster the
	// shard layer.
	nsPerCell := r.kernelNsPerCell(m)
	nodeLadder, err := r.ladder(node, nsPerCell)
	if err != nil {
		return nil, err
	}
	side := newConn(newTransport(1), &r.t)
	defer side.hc.CloseIdleConnections()
	q0, f0, r0, err := r.coordCounters(side, cluster.url())
	if err != nil {
		return nil, err
	}
	clusterLadder, err := r.ladder(cluster, nsPerCell)
	if err != nil {
		return nil, err
	}
	q1, f1, r1, err := r.coordCounters(side, cluster.url())
	if err != nil {
		return nil, err
	}
	m["server.handler_query_us"] = nodeLadder.p50us(rungHandler)
	m["server.overhead_us"] = nodeLadder.p50us(rungHandler) - nodeLadder.p50us(rungQuery)
	m["server.http_us"] = nodeLadder.p50us(rungClient) - nodeLadder.p50us(rungHandler)
	m["shard.coord_handler_us"] = clusterLadder.p50us(rungCoord)
	m["shard.slowest_shard_us"] = clusterLadder.p50us(rungCall)
	m["shard.fanout_overhead_us"] = clusterLadder.p50us(rungClient) - clusterLadder.p50us(rungCall)
	m["shard.fanouts_per_query"] = (f1 - f0) / max(q1-q0, 1)
	m["shard.retries"] = r1 - r0

	own, front := nodeLadder, node
	if r.w.shards > 0 {
		own, front = clusterLadder, cluster
	}
	if err := writeSpans(outDir, r.w.name, own.spans); err != nil {
		return nil, err
	}
	covered := 0.0
	fmt.Printf("trace: %d requests, self time as a share of the client span:", len(own.plain))
	for _, name := range []string{rungClient, rungCoord, rungCall, rungHandler, rungCodec, rungQuery, rungKernel} {
		if s, ok := own.self[name]; ok {
			fmt.Printf(" %s=%.3f", name, s/own.client)
			covered += s
		}
	}
	fmt.Println()
	fmt.Printf("trace: plan+kernel share=%.3f\n", (own.self[rungQuery]+own.self[rungKernel])/own.client)
	m["load.span_coverage"] = covered / own.client
	m["load.trace_overhead_frac"] = (median(own.dur[rungClient]) - median(own.plain)) / median(own.plain)

	// The latencies of the closed loops the end-to-end run rates: one
	// query round, long enough to leave ten samples beyond the p99, and
	// one ingest round.
	r.setPhase("closed-loop")
	measured := newTransport(r.clients)
	defer measured.CloseIdleConnections()
	conns := make([]*conn, r.clients)
	for i := range conns {
		conns[i] = newConn(measured, &r.t)
	}
	closed, _ := r.queryRound(queryURL(front.url(), collection), conns, 0, 4*r.queryRoundLen())
	if r.full && closed.n < minP99Samples {
		return nil, fmt.Errorf("closed-loop round holds %d samples; p99 needs %d", closed.n, minP99Samples)
	}
	m["load.closed_p50_ms"], m["load.closed_p99_ms"] = closed.p50, closed.p99
	ingested, _, err := r.ingestRound(front.url(), conns[0], "trace_ingest", ingestBodies(r.in.data, ingestBatch), 2*r.ingestRequests())
	if err != nil {
		return nil, err
	}
	m["load.ingest_p50_ms"] = ingested.p50

	rejectedBefore, attemptedBefore := r.t.rejected.Load(), r.t.attempted.Load()
	openLen := time.Duration(0.15 * r.seconds * float64(time.Second))
	m["load.open_rate_qps"], m["load.open_p50_ms"], m["load.open_p99_ms"], m["load.open_late_p99_ms"] =
		r.openLoop(queryURL(front.url(), collection), r.w.openRate, openLen)
	m["server.rejected"] = float64(r.t.rejected.Load()-rejectedBefore) / float64(max(r.t.attempted.Load()-attemptedBefore, 1))

	if m["server.handler_batch_us_per_query"], m["server.handler_ingest_us"], err = r.handlerLayer(node.servers[0].Handler()); err != nil {
		return nil, err
	}
	if m["shard.ingest_route_us"], err = r.ingestRoute(cluster); err != nil {
		return nil, err
	}
	if err := r.writeLayers(m); err != nil {
		return nil, err
	}

	// Last, because it rewrites the node's collection: replay writer
	// cycles and count what maintenance did.
	r.setPhase("layer:maint-replay")
	if r.in.extra == nil {
		r.in.extra = r.in.data
	}
	wr := newWriter(r, node, side)
	for i := 0; i < maintReplayCycles; i++ {
		wr.cycle(side, wr.paced, writerAdds)
	}
	m["maint.runs"] = float64(wr.compactions + wr.checkpoints)

	fmt.Printf("oracle_mismatches=%d\n", mismatches)
	if mismatches > 0 {
		return m, errOracle
	}
	return m, nil
}
