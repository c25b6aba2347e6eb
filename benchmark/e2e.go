package main

import (
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bond/internal/api"
	"bond/internal/topk"
)

// defaultRounds is how many times every timed phase repeats. The phases
// interleave, so the repetitions of each distinct request are spread over
// the whole measuring window; see repeats for what is made of them. An
// ingest position is repeated once per round, so the rounds are many and
// short.
const defaultRounds = 24

// setups is how many times a run builds the stack from an empty
// directory; setup_s is the median, and the last stack is the one
// measured.
const setups = 3

// run is one invocation: one workload, one seed.
type run struct {
	w       workload
	seed    int64
	seconds float64 // measuring budget; phase lengths are shares of it
	rounds  int
	full    bool // scale 1: sample-count floors apply
	clients int
	tmp     string // data root, removed on exit

	in       inputs
	bodies   [][]byte        // one pre-encoded query request per query
	expected [][]topk.Result // oracle answer per query over in.data

	t     tally
	phase atomic.Value // string: what the watchdog names when it fires
}

func (r *run) setPhase(p string) { r.phase.Store(p) }

// Phase lengths, as shares of the measuring budget. At the declared
// run_seconds of 20 a query round is 0.5 s, a batch round 0.25 s, and an
// ingest round 62 requests.
func (r *run) queryRoundLen() time.Duration {
	return time.Duration(0.025 * r.seconds * float64(time.Second))
}
func (r *run) batchRoundLen() time.Duration {
	return time.Duration(0.0125 * r.seconds * float64(time.Second))
}
func (r *run) ingestRequests() int { return max(int(3.125*r.seconds), 4) }

// prepare generates the inputs, the request bodies and the oracle's
// answers. None of it is timed: it is the load generator's own work.
func (r *run) prepare() {
	r.setPhase("prepare")
	r.in = r.w.generate(r.seed)
	fmt.Printf("inputs_hash=%016x\n", r.in.hash())
	r.bodies = r.w.queryBodies(r.in.queries)
	r.expected = make([][]topk.Result, len(r.in.queries))
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(r.in.queries); i += runtime.GOMAXPROCS(0) {
				r.expected[i] = r.w.oracleTopK(r.in.data, r.in.queries[i])
			}
		}(g)
	}
	wg.Wait()
}

// setup builds the measured state from an empty directory: servers up,
// the dataset ingested over HTTP, a checkpoint, a restart so sealed
// segments are served from their memory-mapped files (the state a
// long-running bondd is in), and one pass over the query set that fills
// caches and lets the planner's timing-fed cost model settle. It returns
// the stack, that pass's answers, and how long all of it took.
func (r *run) setup(w workload, dir string, ingest [][]byte) (*stack, []api.QueryResponse, time.Duration, error) {
	r.setPhase("setup")
	start := time.Now()
	st, err := startStack(w, dir)
	if err != nil {
		return nil, nil, 0, err
	}
	tr := newTransport(1)
	defer tr.CloseIdleConnections()
	c := newConn(tr, &r.t)
	create := mustJSON(api.CreateRequest{Dims: w.dims, SegmentSize: w.segSize})
	if _, err := c.do(http.MethodPut, colURL(st.url(), collection), create); err != nil {
		st.close()
		return nil, nil, 0, err
	}
	for _, b := range ingest {
		if _, err := c.do(http.MethodPost, ingestURL(st.url(), collection), b); err != nil {
			st.close()
			return nil, nil, 0, err
		}
	}
	if err := st.checkpoint(); err != nil {
		st.close()
		return nil, nil, 0, err
	}
	tr.CloseIdleConnections()
	if err := st.close(); err != nil {
		return nil, nil, 0, err
	}
	if st, err = startStack(w, dir); err != nil {
		return nil, nil, 0, err
	}
	first := make([]api.QueryResponse, len(r.bodies))
	for i, b := range r.bodies {
		if err := c.query(queryURL(st.url(), collection), b, &first[i]); err != nil {
			st.close()
			return nil, nil, 0, err
		}
	}
	return st, first, time.Since(start), nil
}

// setupBodies is the dataset cut into set-up ingest requests, short tail
// included.
func (r *run) setupBodies() [][]byte {
	bodies := ingestBodies(r.in.data, setupBatch)
	if tail := len(r.in.data) % setupBatch; tail > 0 {
		bodies = append(bodies, mustJSON(api.IngestRequest{Vectors: r.in.data[len(r.in.data)-tail:]}))
	}
	return bodies
}

// verifyAll checks one answer per query against the oracle over live,
// counting each mismatch as a failed operation. It returns the number of
// mismatches.
func (r *run) verifyAll(answers []api.QueryResponse, expected [][]topk.Result, live [][]float64, idBase int) int {
	bad := 0
	for i := range answers {
		if err := r.w.verify(answers[i].Results, expected[i], live, r.in.queries[i], idBase); err != nil {
			r.t.fail("oracle mismatch on query %d: %v", i, err)
			bad++
		}
	}
	return bad
}

// roundStats is one closed-loop round.
type roundStats struct {
	perSec   float64 // operations per second of the round's wall time
	p50, p99 float64 // per-request latency, ms
	n        int
}

func summarize(lat []float64, wall time.Duration, opsPerRequest int) roundStats {
	sort.Float64s(lat)
	return roundStats{
		perSec: float64(len(lat)*opsPerRequest) / wall.Seconds(),
		p50:    percentile(lat, 0.50),
		p99:    percentile(lat, 0.99),
		n:      len(lat),
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quickShare picks, among the repetitions of one request, the time that
// stands for it: the 5th percentile, nearest rank — the fastest of fewer
// than twenty repetitions, the third fastest of fifty.
const quickShare = 0.05

// repeats holds, for each distinct request of a phase, how long each of
// its repetitions took, in ms.
//
// The sandbox is a small shared VM whose neighbours take cycles away in
// bursts of tens of milliseconds, more of them or fewer for tens of
// minutes at a stretch: between two runs of unchanged code the mean
// latency of a request moves by a quarter, the rate of the best whole
// round by a fifth, the fast end of a request's repetitions by a
// twentieth. A burst only ever adds time, and a request cannot finish
// sooner than its work takes, so the fast end is where the neighbours
// disturbed it least. The very fastest repetition is steadiest where
// requests are short and one server answers; behind the coordinator a
// few repetitions in a hundred find both shards and the other client out
// of each other's way and finish a fifth sooner than any others, and
// what the fastest one reads depends on how many of those there were.
// The 5th percentile is past them and still ahead of the bursts.
//
// The reported rates are those of the closed loop with every distinct
// request at that time: the cost of each request counts, with its own
// weight; what the machine added to most repetitions does not. Nor does
// anything else that slows only some repetitions of a request, such as a
// collection pause or a write that happened to overlap; the per-round p99
// printed beside the rates shows those, unsteadily.
type repeats [][]float64

func (t repeats) note(i int, ms float64) { t[i] = append(t[i], ms) }

func (t repeats) merge(u repeats) {
	for i, ms := range u {
		t[i] = append(t[i], ms...)
	}
}

// perSec is the operations per second one closed-loop connection completes
// when every distinct request takes its quick time; seen is how many of
// them completed at all.
func (t repeats) perSec(opsPerRequest int) (rate float64, seen int) {
	total := 0.0
	for _, ms := range t {
		if len(ms) > 0 {
			sort.Float64s(ms)
			total += percentile(ms, quickShare)
			seen++
		}
	}
	return float64(seen*opsPerRequest) / (total / 1000), seen
}

// queryRound drives the query endpoint closed-loop from every connection
// for d: each connection sends its next request when the previous answer
// has arrived, cycling the query set from its own offset past from, which
// is where the previous round stopped, so the repetitions spread evenly
// over the queries. The distinct requests are the queries.
func (r *run) queryRound(url string, conns []*conn, from int, d time.Duration) (roundStats, repeats) {
	lats := make([][]float64, len(conns))
	bests := make([]repeats, len(conns)) // one per goroutine, merged below
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for ci, c := range conns {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			var out api.QueryResponse
			bests[ci] = make(repeats, len(r.bodies))
			at := from + ci*len(r.bodies)/len(conns)
			for time.Now().Before(deadline) {
				t0 := time.Now()
				if c.query(url, r.bodies[at%len(r.bodies)], &out) == nil {
					l := ms(time.Since(t0))
					lats[ci] = append(lats[ci], l)
					bests[ci].note(at%len(r.bodies), l)
				}
				at++
			}
		}(ci, c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []float64
	for ci, l := range lats {
		all = append(all, l...)
		if ci > 0 {
			bests[0].merge(bests[ci])
		}
	}
	return summarize(all, wall, 1), bests[0]
}

// batchRound drives the batch endpoint closed-loop from one connection,
// starting where the previous round stopped. The distinct requests are
// the batch bodies.
func (r *run) batchRound(url string, c *conn, bodies [][]byte, from int, d time.Duration) (roundStats, repeats) {
	var lat []float64
	var out api.BatchResponse
	best := make(repeats, len(bodies))
	start := time.Now()
	deadline := start.Add(d)
	for at := from; time.Now().Before(deadline); at++ {
		t0 := time.Now()
		if c.batch(url, bodies[at%len(bodies)], &out) == nil {
			l := ms(time.Since(t0))
			lat = append(lat, l)
			best.note(at%len(bodies), l)
		}
	}
	return summarize(lat, time.Since(start), batchSpecs), best
}

// ingestRound sends n ingest requests closed-loop into a fresh
// collection; creating and dropping it sit outside the timed window, so
// the queried collection never changes. Every round sends the same
// bodies into the same state, so the distinct requests are the positions
// in the round: the i-th request seals a segment in every round or in
// none.
func (r *run) ingestRound(base string, c *conn, name string, bodies [][]byte, n int) (roundStats, repeats, error) {
	create := mustJSON(api.CreateRequest{Dims: r.w.dims, SegmentSize: r.w.segSize})
	if _, err := c.do(http.MethodPut, colURL(base, name), create); err != nil {
		return roundStats{}, nil, err
	}
	lat := make([]float64, 0, n)
	best := make(repeats, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := c.do(http.MethodPost, ingestURL(base, name), bodies[i%len(bodies)]); err == nil {
			l := ms(time.Since(t0))
			lat = append(lat, l)
			best.note(i, l)
		}
	}
	wall := time.Since(start)
	if _, err := c.do(http.MethodDelete, colURL(base, name), nil); err != nil {
		return roundStats{}, nil, err
	}
	return summarize(lat, wall, ingestBatch), best, nil
}

// phase is one timed phase of a run: its rounds as the clock saw them,
// printed for the reader, and the repetitions of each distinct request,
// which the reported rate is made of.
type phase struct {
	name   string
	rounds []roundStats
	best   repeats
}

func (p *phase) add(s roundStats, t repeats) {
	p.rounds = append(p.rounds, s)
	if p.best == nil {
		p.best = make(repeats, len(t))
	}
	p.best.merge(t)
}

// rate prints the phase and returns its reported rate for conns
// connections. On a full run every distinct request must have completed.
func (p *phase) rate(conns, opsPerRequest int, full bool) (float64, error) {
	for i, s := range p.rounds {
		fmt.Printf("%s round %d: per_s=%.1f p50_ms=%.4f p99_ms=%.4f samples=%d\n", p.name, i, s.perSec, s.p50, s.p99, s.n)
	}
	perConn, seen := p.best.perSec(opsPerRequest)
	fmt.Printf("%s: %d of %d distinct requests completed; with each at the %gth percentile of its repetitions: per_s=%.1f\n", p.name, seen, len(p.best), 100*quickShare, float64(conns)*perConn)
	if full && seen < len(p.best) {
		return 0, fmt.Errorf("%s phase: %d of %d distinct requests never completed", p.name, len(p.best)-seen, len(p.best))
	}
	return float64(conns) * perConn, nil
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) (int64, error) {
	var total int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// liveVectors sums the live counts of the queried collection over the
// stack's nodes.
func (st *stack) liveVectors() (int, error) {
	live := 0
	for _, srv := range st.servers {
		col, err := srv.Catalog().Get(collection)
		if err != nil {
			return 0, err
		}
		live += col.Live()
	}
	return live, nil
}

// heapLive is the live heap in bytes: HeapAlloc after three collections.
// Buffers net/http pooled when the set-up connection closed sit in a
// sync.Pool, which keeps them for two cycles; read after two, the value
// jumped by 8.7 KB on some runs and not on others.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return mem.HeapAlloc
}

// endToEndRun measures the client-observed metrics.
func (r *run) endToEndRun() (map[string]float64, error) {
	r.prepare()
	// Servers and load generator share the process. What the generator
	// holds from here to the end of set-up — dataset, request bodies,
	// oracle answers — is the baseline heap_live_mb is taken above.
	driverHeap := heapLive()
	ingest := r.setupBodies()

	// Set-up, several times over; the last stack stays up.
	var (
		st     *stack
		first  []api.QueryResponse
		setupS []float64
	)
	for i := 0; i < setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		var err error
		st, first, took, err = r.setup(r.w, filepath.Join(r.tmp, fmt.Sprintf("setup%d", i)), ingest)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, took.Seconds())
	}
	defer func() { st.close() }()
	ingest = nil
	mismatches := r.verifyAll(first, r.expected, r.in.data, 0)
	first = nil

	out := map[string]float64{
		"setup_s":      median(setupS),
		"heap_live_mb": (float64(heapLive()) - float64(driverHeap)) / (1 << 20),
	}

	measured := newTransport(r.clients)
	defer measured.CloseIdleConnections()
	conns := make([]*conn, r.clients)
	for i := range conns {
		conns[i] = newConn(measured, &r.t)
	}
	side := newTransport(1) // the interfering side of mixed_rw
	defer side.CloseIdleConnections()

	var wr *writer
	if r.w.mixed {
		wr = newWriter(r, st, newConn(side, &r.t))
	}

	// Rounds interleave the three phases — query, batch, ingest, over
	// and over — so the repetitions of every distinct request are spread
	// across the whole measuring window and one slow stretch of the
	// machine cannot take them all. On mixed_rw the paced writer runs
	// through the query and batch rounds, and the paced reader through
	// the ingest rounds.
	batches := r.w.batchBodies(r.in.queries)
	var ingests [][]byte
	if wr == nil {
		ingests = ingestBodies(r.in.data, ingestBatch)
	}
	queryPhase, batchPhase, ingestPhase := phase{name: "query"}, phase{name: "batch"}, phase{name: "ingest"}
	queryAt, batchAt := 0, 0
	runtime.GC()
	for i := 0; i < r.rounds; i++ {
		stopWriter := func() {}
		if wr != nil {
			stopWriter = wr.startPaced()
		}
		r.setPhase("query")
		qs, qf := r.queryRound(queryURL(st.url(), collection), conns, queryAt, r.queryRoundLen())
		queryPhase.add(qs, qf)
		queryAt += qs.n / len(conns)
		r.setPhase("batch")
		bs, bf := r.batchRound(batchURL(st.url(), collection), conns[0], batches, batchAt, r.batchRoundLen())
		batchPhase.add(bs, bf)
		batchAt += bs.n
		stopWriter()
		r.setPhase("ingest")
		if wr != nil {
			stopReader := r.startPacedReader(queryURL(st.url(), collection), wr.c)
			ingestPhase.add(wr.ingestRound(conns[0], max(r.ingestRequests()/2/maintEvery, 1)))
			stopReader()
			continue
		}
		is, ibest, err := r.ingestRound(st.url(), conns[0], fmt.Sprintf("ingest%d", i), ingests, r.ingestRequests())
		if err != nil {
			return nil, err
		}
		ingestPhase.add(is, ibest)
	}

	// Quiesced correctness pass over the collection the writer left.
	if wr != nil {
		r.setPhase("quiesced-verify")
		mismatches += wr.verifyQuiesced(conns[0])
	}

	r.setPhase("final-checkpoint")
	if err := st.checkpoint(); err != nil {
		return nil, err
	}
	bytes, err := dirBytes(st.dir)
	if err != nil {
		return nil, err
	}
	live, err := st.liveVectors()
	if err != nil {
		return nil, err
	}
	out["disk_amp"] = float64(bytes) / float64(live*r.w.dims*8)
	if out["query_qps"], err = queryPhase.rate(r.clients, 1, r.full); err != nil {
		return nil, err
	}
	if out["batch_qps"], err = batchPhase.rate(1, batchSpecs, r.full); err != nil {
		return nil, err
	}
	ingestOps := ingestBatch // vectors per distinct request
	if wr != nil {
		ingestOps *= maintEvery // there the distinct requests are whole maintenance periods
	}
	if out["ingest_vps"], err = ingestPhase.rate(1, ingestOps, r.full); err != nil {
		return nil, err
	}
	fmt.Printf("rounds=%d clients=%d\n", r.rounds, r.clients)
	if wr != nil {
		fmt.Printf("writer: cycles=%d late_max_ms=%.1f compactions=%d checkpoints=%d live=%d\n",
			wr.cycles, ms(wr.lateMax), wr.compactions, wr.checkpoints, live)
	}
	fmt.Printf("oracle_mismatches=%d\n", mismatches)
	if mismatches > 0 {
		return out, errOracle
	}
	return out, nil
}

// removeAll is os.RemoveAll that keeps quiet: the data root is scratch.
func removeAll(path string) { _ = os.RemoveAll(path) }
