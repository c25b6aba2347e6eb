package main

import (
	"net/http"
	"sync"
	"time"

	"bond/internal/api"
	"bond/internal/topk"
)

// writer is mixed_rw's write side. A cycle is one ingest request plus as
// many single deletes of the oldest live ids, so the collection churns at
// a steady size and every round queries the same amount of data; every
// maintEvery cycles the writer calls Server.RunMaintenance itself, so
// compaction and WAL-bounding checkpoints happen at fixed points of the
// op stream instead of on a timer.
//
// It also keeps the driver's own copy of what should be live. Deleting
// oldest-first keeps every tombstone ahead of every live vector, and
// compaction preserves order, so the live vectors are all[head:] and the
// served id of all[head] is the number of tombstone slots still in the
// store.
type writer struct {
	r  *run
	st *stack
	c  *conn // the paced side's connection

	paced  [][]byte // writerAdds-vector ingest bodies cut from in.extra
	closed [][]byte // ingestBatch-vector bodies for the measured ingest phase

	all  [][]float64
	head int // all[:head] have been deleted
	tomb int // tombstone slots ahead of the first live vector
	next int // next vector of in.extra to add

	cycles      int
	compactions int
	checkpoints int
	lateMax     time.Duration
}

func newWriter(r *run, st *stack, c *conn) *writer {
	return &writer{
		r: r, st: st, c: c,
		paced:  ingestBodies(r.in.extra, writerAdds),
		closed: ingestBodies(r.in.extra, ingestBatch),
		all:    append([][]float64(nil), r.in.data...),
	}
}

// cycle performs one write cycle on connection c with an ingest body of
// size vectors, returning the ingest request's latency.
func (wr *writer) cycle(c *conn, bodies [][]byte, size int) time.Duration {
	base := wr.st.url()
	extra := wr.r.in.extra
	chunk := (wr.next / size) % len(bodies)
	t0 := time.Now()
	_, err := c.do(http.MethodPost, ingestURL(base, collection), bodies[chunk])
	lat := time.Since(t0)
	if err == nil {
		wr.all = append(wr.all, extra[chunk*size:(chunk+1)*size]...)
	}
	wr.next += size
	for i := 0; i < size; i++ {
		if _, err := c.do(http.MethodDelete, vectorURL(base, collection, wr.tomb), nil); err == nil {
			wr.tomb++
			wr.head++
		}
	}
	wr.cycles++
	if wr.cycles%maintEvery == 0 {
		wr.maintain()
	}
	return lat
}

// maintain runs one maintenance pass and re-reads how many tombstone
// slots compaction left.
func (wr *writer) maintain() {
	srv := wr.st.servers[0]
	compacted, _, checkpointed, err := srv.RunMaintenance() // re-clustering is configured off
	if err != nil {
		wr.r.t.fail("RunMaintenance: %v", err)
	}
	wr.compactions += compacted
	wr.checkpoints += checkpointed
	col, err := srv.Catalog().Get(collection)
	if err != nil {
		wr.r.t.fail("catalog get: %v", err)
		return
	}
	wr.tomb = col.Len() - col.Live()
}

// paced calls fn from one goroutine on a fixed schedule — call i is due
// i/hz seconds after the start — until the returned stop function is
// called, which waits for the call in flight. A call that is due late is
// made late, not skipped, so the op stream is the same on every run; fn
// is told how late.
func paced(hz int, fn func(i int, late time.Duration)) (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * time.Second / time.Duration(hz))
			select {
			case <-quit:
				return
			case <-time.After(time.Until(due)):
			}
			fn(i, time.Since(due))
		}
	}()
	return func() { close(quit); wg.Wait() }
}

// startPaced runs write cycles at writerHz until stopped, keeping the
// worst lateness for the report.
func (wr *writer) startPaced() (stop func()) {
	return paced(writerHz, func(_ int, late time.Duration) {
		wr.lateMax = max(wr.lateMax, late)
		wr.cycle(wr.c, wr.paced, writerAdds)
	})
}

// ingestRound is a measured ingest round on mixed_rw: closed-loop write
// cycles with ingestBatch-vector requests on the measured connection, in
// groups of one maintenance period — maintEvery cycles, the last of which
// compacts and checkpoints. A group is timed as a whole, so the deletes,
// the compaction and the checkpoint count against ingest_vps: this is the
// one workload where slower write-side upkeep can show. The round starts
// on a period boundary (untimed cycles take it there), which makes the
// g-th group the same work in every round: the distinct requests are the
// groups. The latency samples are the ingest requests alone.
func (wr *writer) ingestRound(c *conn, groups int) (roundStats, repeats) {
	for wr.cycles%maintEvery != 0 {
		wr.cycle(c, wr.closed, ingestBatch)
	}
	lat := make([]float64, 0, groups*maintEvery)
	best := make(repeats, groups)
	start := time.Now()
	for g := 0; g < groups; g++ {
		t0 := time.Now()
		for i := 0; i < maintEvery; i++ {
			lat = append(lat, ms(wr.cycle(c, wr.closed, ingestBatch)))
		}
		best.note(g, ms(time.Since(t0)))
	}
	return summarize(lat, time.Since(start), ingestBatch), best
}

// verifyQuiesced queries the collection the writer left and checks the
// answers against a scan of the driver's own live copy.
func (wr *writer) verifyQuiesced(c *conn) int {
	live := wr.all[wr.head:]
	n := len(wr.r.bodies)
	answers := make([]api.QueryResponse, n)
	expected := make([][]topk.Result, n)
	for i := 0; i < n; i++ {
		if err := c.query(queryURL(wr.st.url(), collection), wr.r.bodies[i], &answers[i]); err != nil {
			return 1
		}
		expected[i] = wr.r.w.oracleTopK(live, wr.r.in.queries[i])
	}
	return wr.r.verifyAll(answers, expected, live, wr.tomb)
}

// startPacedReader sends queries on a fixed schedule of readerHz from
// one connection until stopped: the read interference the measured
// writer works against.
func (r *run) startPacedReader(url string, c *conn) (stop func()) {
	var out api.QueryResponse
	return paced(readerHz, func(i int, _ time.Duration) {
		_ = c.query(url, r.bodies[i%len(r.bodies)], &out) // failures are tallied by the conn
	})
}
