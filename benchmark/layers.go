package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"bond"
	"bond/internal/api"
	"bond/internal/iofs"
	"bond/internal/kernel"
	"bond/internal/topk"
	"bond/internal/wal"
)

// Per-layer metrics are measured from outside: this file times calls
// into each package's exported functions on the workload's own data.
// Every number is a median over layerRounds rounds, and alternatives
// that are compared (strategies, one against two goroutines, mmap
// against heap) run interleaved inside each round so drift hits both.

const layerRounds = 5

// planQueries is how many of the run's queries the plan, bond and api
// measurements cycle through.
const planQueries = 64

// sink keeps measured results alive so the compiler cannot drop the
// calls that produce them.
var sink float64

// timeIt returns how long fn took, in seconds.
func timeIt(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// interleaved runs every fn once per round, layerRounds times, and
// returns each fn's median seconds.
func interleaved(fns ...func()) []float64 {
	for _, fn := range fns {
		fn() // warm
	}
	times := make([][]float64, len(fns))
	for round := 0; round < layerRounds; round++ {
		for i, fn := range fns {
			times[i] = append(times[i], timeIt(fn))
		}
	}
	out := make([]float64, len(fns))
	for i := range fns {
		out[i] = median(times[i])
	}
	return out
}

const us = 1e6 // seconds → microseconds

// --- kernel -----------------------------------------------------------------

// kernelLayer times the inner loops on the workload's own columns: the
// whole dataset decomposed, so a dense pass streams the same bytes a
// pruning-hostile query does.
func (r *run) kernelLayer(m map[string]float64) {
	r.setPhase("layer:kernel")
	data, q := r.in.data, r.in.queries[0]
	n, dims := len(data), r.w.dims
	cols := make([][]float64, dims)
	codes := make([][]uint8, dims)
	rows := make([]uint8, n*dims)
	for d := range cols {
		cols[d] = make([]float64, n)
		codes[d] = make([]uint8, n)
		for i, v := range data {
			cols[d][i] = v[d]
			c := uint8(min(v[d]*256, 255))
			codes[d][i] = c
			rows[i*dims+d] = c
		}
	}
	dense := make([]int, n)
	for i := range dense {
		dense[i] = i
	}
	var sparse []int
	for i := 0; i < n; i += 16 {
		sparse = append(sparse, i)
	}
	score := make([]float64, n)
	hi := make([]float64, n)
	var tLo, tHi [256]float64
	for i := range tLo {
		tLo[i], tHi[i] = float64(i)/256, float64(i+1)/256
	}
	tbl := make([]float64, dims*256)
	for i := range tbl {
		tbl[i] = float64(i%256) / 256
	}

	// perCell times passes of fn, each touching cells cells, long enough
	// per round to dwarf the clock, and returns ns per cell.
	perCell := func(cells int, fn func()) float64 {
		reps := max(1, (4<<20)/cells)
		t := interleaved(func() {
			for i := 0; i < reps; i++ {
				fn()
			}
		})[0]
		return t * 1e9 / float64(reps*cells)
	}
	acc := func(k func(score, col []float64, cands []int, qd float64), cands []int) float64 {
		return perCell(len(cands)*dims, func() {
			for d := range cols {
				k(score, cols[d], cands, q[d])
			}
		})
	}
	m["kernel.acc_sqdist_dense_ns_cell"] = acc(kernel.AccSqDist, dense)
	m["kernel.acc_sqdist_sparse_ns_cell"] = acc(kernel.AccSqDist, sparse)
	m["kernel.acc_minq_dense_ns_cell"] = acc(kernel.AccMinQ, dense)
	m["kernel.acc_minq_sparse_ns_cell"] = acc(kernel.AccMinQ, sparse)
	m["kernel.acc_code_bounds_ns_cell"] = perCell(n*dims, func() {
		for d := range codes {
			kernel.AccCodeBounds(score, hi, codes[d], dense, &tLo, &tHi)
		}
	})
	m["kernel.va_rowsum_ns_cell"] = perCell(n*dims, func() {
		for i := 0; i < n; i++ {
			sink += kernel.VARowSum(tbl, rows[i*dims:(i+1)*dims])
		}
	})
	m["kernel.sqdist_row_ns_cell"] = perCell(n*dims, func() {
		for _, v := range data {
			sink += kernel.SqDist(v, q)
		}
	})

	// memcpy over a buffer the size of the decomposed dataset: the
	// bandwidth a dense column scan competes with.
	src := make([]float64, n*dims)
	dst := make([]float64, n*dims)
	for d := range cols {
		copy(src[d*n:], cols[d])
	}
	copyNs := perCell(n*dims, func() { copy(dst, src) })
	sink += dst[len(dst)-1]
	m["kernel.memcpy_gbps"] = 8 / copyNs // 8 bytes per cell, ns per cell
	// A dense AccSqDist reads 8 column bytes per cell.
	m["kernel.roofline_frac"] = (8 / m["kernel.acc_sqdist_dense_ns_cell"]) / m["kernel.memcpy_gbps"]
}

// kernelNsPerCell is the dense accumulate kernel a BOND scan under the
// workload's criterion runs, for the traced run's kernel replay.
func (r *run) kernelNsPerCell(m map[string]float64) float64 {
	if r.w.criterion == "hq" {
		return m["kernel.acc_minq_dense_ns_cell"]
	}
	return m["kernel.acc_sqdist_dense_ns_cell"]
}

// --- plan -------------------------------------------------------------------

// planSpecs is the planQueries-query subset the library-level layers
// cycle through.
func (r *run) planSpecs(strategy string) []bond.QuerySpec {
	return r.specs(strategy)[:min(planQueries, len(r.in.queries))]
}

// specs is the run's queries as library specs with the strategy pinned.
func (r *run) specs(strategy string) []bond.QuerySpec {
	crit, _ := bond.ParseCriterion(r.w.criterion) // spelled by workloads.go
	strat, err := bond.ParseStrategy(strategy)
	if err != nil {
		panic(err)
	}
	out := make([]bond.QuerySpec, len(r.in.queries))
	for i := range out {
		out[i] = bond.QuerySpec{Query: r.in.queries[i], K: topK, Criterion: crit, Strategy: strat}
	}
	return out
}

// planLayer runs the same queries through Collection.Query with the
// strategy pinned to each access path in turn, and reads the planner's
// own account of what auto chose.
func (r *run) planLayer(m map[string]float64, col *bond.Collection) error {
	r.setPhase("layer:plan")
	var firstErr error
	pass := func(specs []bond.QuerySpec, each func(bond.QueryResult)) func() {
		return func() {
			for _, s := range specs {
				res, err := col.Query(s)
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if each != nil {
					each(res)
				}
			}
		}
	}
	fns := make([]func(), len(strategies))
	for i, s := range strategies {
		fns[i] = pass(r.planSpecs(s), nil)
	}
	secs := interleaved(fns...)
	nq := float64(len(r.planSpecs("auto")))
	best := 0.0
	for i, s := range strategies {
		m["plan.query_us."+s] = secs[i] * us / nq
		if i > 0 && (best == 0 || secs[i] < best) {
			best = secs[i]
		}
		var cells int64
		var skipped, segments, final int
		pass(r.planSpecs(s), func(res bond.QueryResult) {
			cells += res.Stats.ValuesScanned
			skipped += res.Stats.SegmentsSkipped
			segments += res.Stats.SegmentsSkipped + res.Stats.SegmentsSearched
			final += res.Stats.FinalCandidates
		})()
		m["plan.cells_per_query."+s] = float64(cells) / nq
		if s == "auto" {
			m["plan.segments_skipped_frac"] = float64(skipped) / float64(max(segments, 1))
			m["plan.final_candidates"] = float64(final) / nq
		}
	}
	m["plan.auto_regret"] = secs[0] / best

	// What auto executed, and how well it predicted the cost.
	steps := map[string]float64{}
	var executed, pred, actual float64
	for _, s := range r.planSpecs("auto") {
		_, p, err := col.QueryExplain(s)
		if err != nil {
			return err
		}
		for _, st := range p.Steps {
			if !st.Executed || st.Skipped {
				continue
			}
			steps[st.Path.String()]++
			executed++
			pred += st.PredCost
			actual += st.ActualCost
		}
	}
	for _, s := range strategies[1:] {
		m["plan.path_share."+s] = steps[s] / max(executed, 1)
	}
	m["plan.cost_pred_ratio"] = pred / max(actual, 1)
	return firstErr
}

// --- bond -------------------------------------------------------------------

// bondLayer measures the collection's read side: allocations, batch
// against one-by-one, and two readers against one.
func (r *run) bondLayer(m map[string]float64, col *bond.Collection) error {
	r.setPhase("layer:bond")
	specs := r.planSpecs("auto")
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	seq := func() {
		for _, s := range specs {
			_, err := col.Query(s)
			note(err)
		}
	}
	batch := func() {
		for at := 0; at+batchSpecs <= len(specs); at += batchSpecs {
			_, err := col.QueryBatch(specs[at : at+batchSpecs])
			note(err)
		}
	}
	two := func() {
		var wg sync.WaitGroup
		var mu sync.Mutex
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, s := range specs {
					if _, err := col.Query(s); err != nil {
						mu.Lock()
						note(err)
						mu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
	}
	secs := interleaved(seq, batch, two)
	batched := float64(len(specs) / batchSpecs * batchSpecs)
	m["bond.batch32_us_per_query"] = secs[1] * us / batched
	m["bond.batch_speedup"] = (secs[0] / float64(len(specs))) / (secs[1] / batched)
	m["bond.scale_c2"] = (2 * float64(len(specs)) / secs[2]) / (float64(len(specs)) / secs[0])

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	seq()
	runtime.ReadMemStats(&after)
	m["bond.query_allocs"] = float64(after.Mallocs-before.Mallocs) / float64(len(specs))
	return firstErr
}

// --- scratch collection: bond writes, wal, durable, maintenance ------------

// writeLayers measures everything that mutates state on a scratch
// durable collection of its own, loaded with the workload's data, so the
// queried collection stays as set-up left it.
func (r *run) writeLayers(m map[string]float64) error {
	r.setPhase("layer:write")
	data, dims, seg := r.in.data, r.w.dims, r.w.segSize
	dir := filepath.Join(r.tmp, "scratch.bond")
	open := func(disableMmap bool) (*bond.Collection, error) {
		return bond.OpenDurable(dir, bond.DurableOptions{
			Dims: dims, SegmentSize: seg, Fsync: bond.FsyncNever, DisableMmap: disableMmap,
		})
	}
	col, err := open(false)
	if err != nil {
		return err
	}
	defer func() { col.Close() }()
	for at := 0; at < len(data); at += setupBatch {
		if _, err := col.AddBatchDurable(data[at:min(at+setupBatch, len(data))]); err != nil {
			return err
		}
	}
	if err := col.Checkpoint(); err != nil {
		return err
	}

	// Incremental checkpoint: one new sealed segment per round. What the
	// round wrote — its WAL records plus the files the checkpoint
	// created — over the user bytes added is the write amplification.
	r.setPhase("layer:durable")
	next := 0
	take := func(n int) [][]float64 { // the next n vectors of data, cycling
		out := make([][]float64, n)
		for i := range out {
			out[i] = data[(next+i)%len(data)]
		}
		next += n
		return out
	}
	var ckptMs, amp []float64
	for round := 0; round < layerRounds; round++ {
		before, err := dirBytes(dir)
		if err != nil {
			return err
		}
		if _, err := col.AddBatchDurable(take(seg)); err != nil {
			return err
		}
		ws, _ := col.WALStats()
		t := timeIt(func() { err = col.Checkpoint() })
		if err != nil {
			return err
		}
		after, err := dirBytes(dir)
		if err != nil {
			return err
		}
		ckptMs = append(ckptMs, t*1e3)
		// The checkpoint deletes the log it supersedes, so the directory
		// grew by the checkpoint's files alone; the log's bytes were
		// written too.
		amp = append(amp, float64(after-before+ws.WALBytes)/float64(seg*dims*8))
	}
	m["durable.checkpoint_ms"] = median(ckptMs)
	m["durable.write_amp"] = median(amp)

	// Cold open, mapped against heap-decoded.
	if err := col.Close(); err != nil {
		return err
	}
	var mapped float64
	reopen := func(disableMmap bool) func() {
		return func() {
			c, oerr := open(disableMmap)
			if oerr != nil {
				err = oerr
				return
			}
			if !disableMmap {
				mapped = float64(c.StatsSnapshot().MappedBytes) / (1 << 20)
			}
			c.Close()
		}
	}
	secs := interleaved(reopen(false), reopen(true))
	if err != nil {
		return err
	}
	m["durable.open_mmap_ms"] = secs[0] * 1e3
	m["durable.open_heap_ms"] = secs[1] * 1e3
	m["vstore.mapped_mb"] = mapped

	// Recovery: a log tail of single-vector records, replayed on every
	// open because nothing checkpoints it away.
	const tail = 4096
	if col, err = open(false); err != nil {
		return err
	}
	for _, v := range take(tail) {
		if _, err := col.AddDurable(v); err != nil {
			return err
		}
	}
	if err := col.Close(); err != nil {
		return err
	}
	m["durable.recover_ms"] = interleaved(reopen(false))[0] * 1e3
	if err != nil {
		return err
	}

	// Write side of the collection.
	r.setPhase("layer:bond-writes")
	if col, err = open(false); err != nil {
		return err
	}
	var addUs, delUs []float64
	for i := 0; i < 64; i++ {
		vs := take(ingestBatch)
		addUs = append(addUs, timeIt(func() { _, err = col.AddBatchDurable(vs) })*us)
		if err != nil {
			return err
		}
	}
	m["bond.add_batch64_us"] = median(addUs)

	// Queries while a writer appends: the reader's median latency when
	// the write lock keeps being taken. The writer is throttled and
	// capped so the collection at most doubles.
	specs := r.planSpecs("auto")
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for added := 0; added < len(data); added += writerAdds {
			select {
			case <-quit:
				return
			case <-time.After(200 * time.Microsecond):
			}
			if _, werr := col.AddBatchDurable(data[added:min(added+writerAdds, len(data))]); werr != nil {
				return
			}
		}
	}()
	var underWrite []float64
	for pass := 0; pass < 3; pass++ {
		for _, s := range specs {
			underWrite = append(underWrite, timeIt(func() { _, err = col.Query(s) })*us)
			if err != nil {
				break
			}
		}
	}
	close(quit)
	wg.Wait()
	if err != nil {
		return err
	}
	m["bond.query_under_write_us"] = median(underWrite)

	// Maintenance: delete the oldest tenth of a segment, compact it away.
	r.setPhase("layer:maint")
	var compactMs []float64
	for round := 0; round < layerRounds; round++ {
		tomb := col.Len() - col.Live()
		for i := 0; i < max(seg/10, 1); i++ {
			delUs = append(delUs, timeIt(func() { _, err = col.TryDeleteDurable(tomb + i) })*us)
			if err != nil {
				return err
			}
		}
		compactMs = append(compactMs, timeIt(func() { _, err = col.CompactRatioDurable(0.05) })*1e3)
		if err != nil {
			return err
		}
	}
	m["bond.delete_us"] = median(delUs)
	m["maint.compact_ms"] = median(compactMs)

	// Re-clustering is k-means over every sealed vector; four segments'
	// worth keeps it inside the run's budget.
	part := data[:min(4*seg, len(data))]
	var reclusterMs []float64
	for round := 0; round < 3; round++ {
		c := bond.NewCollectionSegmented(part, seg)
		reclusterMs = append(reclusterMs, timeIt(func() { c.Recluster(0, 1) })*1e3)
	}
	m["maint.recluster_ms"] = median(reclusterMs)

	return r.walLayer(m)
}

// walLayer times the log itself, below the collection.
func (r *run) walLayer(m map[string]float64) error {
	r.setPhase("layer:wal")
	path := filepath.Join(r.tmp, "wal-layer")
	w, err := wal.Create(iofs.OS{}, path)
	if err != nil {
		return err
	}
	defer w.Close()
	rec := wal.Record{Type: wal.TypeAddBatch, Vectors: r.in.data[:writerAdds]}
	appendUs := func(n int, sync bool) (float64, error) {
		var ts []float64
		for i := 0; i < n; i++ {
			var aerr error
			ts = append(ts, timeIt(func() { aerr = w.Append(rec, sync) })*us)
			if aerr != nil {
				return 0, aerr
			}
		}
		return median(ts), nil
	}
	empty := w.Size()
	if m["wal.append_us"], err = appendUs(512, false); err != nil {
		return err
	}
	m["wal.bytes_per_vector"] = float64(w.Size()-empty) / float64(512*writerAdds)
	if m["wal.append_fsync_us"], err = appendUs(16, true); err != nil {
		return err
	}
	img, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	t := interleaved(func() {
		recs, _, derr := wal.DecodeAll(img)
		if derr != nil {
			err = derr
		}
		sink += float64(len(recs))
	})[0]
	m["wal.decode_mb_s"] = float64(len(img)) / 1e6 / t
	return err
}

// --- topk -------------------------------------------------------------------

// topkLayer merges per-shard lists the way a fan-out answer is built:
// lists of k, one per shard, taken from the oracle's answers.
func (r *run) topkLayer(m map[string]float64, shards int) {
	r.setPhase("layer:topk")
	largest := r.w.criterion == "hq"
	lists := make([][]topk.Result, len(r.expected))
	for i, rs := range r.expected {
		lists[i] = make([]topk.Result, len(rs))
		for j, x := range rs {
			lists[i][j] = topk.Result{ID: x.ID*len(r.expected) + i, Score: x.Score} // disjoint ids across lists
		}
	}
	n := len(lists) / shards
	t := interleaved(func() {
		for i := 0; i < n; i++ {
			sink += float64(len(topk.Merge(topK, largest, lists[i*shards:(i+1)*shards]...)))
		}
	})[0]
	m["topk.merge_us"] = t * us / float64(n)
}

// --- api --------------------------------------------------------------------

// decodeStrict is the server's request decoding: a streaming decoder
// that rejects unknown fields.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// apiLayer pushes the wire structs through encoding/json: the bytes the
// driver sent and the answers it got back.
func (r *run) apiLayer(m map[string]float64, answers []api.QueryResponse) error {
	r.setPhase("layer:api")
	n := min(planQueries, len(r.bodies))
	var err error
	note := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	batchOut := api.BatchResponse{Results: answers[:min(batchSpecs, len(answers))]}
	served := make([][]byte, n) // the answers as the driver received them
	for i := range served {
		served[i] = mustJSON(&answers[i])
	}
	ingest := ingestBodies(r.in.data[:ingestBatch], ingestBatch)[0]
	secs := interleaved(
		func() {
			for _, b := range r.bodies[:n] {
				var s api.QuerySpec
				note(decodeStrict(b, &s))
			}
		},
		func() {
			for i := range answers[:n] {
				note(json.NewEncoder(io.Discard).Encode(&answers[i]))
			}
		},
		func() { note(json.NewEncoder(io.Discard).Encode(&batchOut)) },
		func() {
			var req api.IngestRequest
			note(decodeStrict(ingest, &req))
		},
		func() { // the load generator's own share: build a request, parse an answer
			for i, raw := range served {
				sink += float64(len(mustJSON(r.w.spec(r.in.queries[i]))))
				var out api.QueryResponse
				note(json.Unmarshal(raw, &out))
			}
		},
	)
	m["api.query_decode_us"] = secs[0] * us / float64(n)
	m["api.query_encode_us"] = secs[1] * us / float64(n)
	m["api.batch_encode_us_per_query"] = secs[2] * us / float64(len(batchOut.Results))
	m["api.ingest_decode_us_per_vector"] = secs[3] * us / ingestBatch
	m["load.client_us"] = secs[4] * us / float64(n)
	return err
}

// --- handlers ---------------------------------------------------------------

// serve pushes one request through a handler with no socket involved
// and returns the response body.
func serve(h http.Handler, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec.Body.Bytes(), nil
}

// handlerLayer times the batch and ingest handlers of h directly; the
// query handler is a rung of the ladder (trace.go).
func (r *run) handlerLayer(h http.Handler) (batchUsPerQuery, ingestUs float64, err error) {
	r.setPhase("layer:server")
	note := func(_ []byte, e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	batches := r.w.batchBodies(r.in.queries[:min(2*batchSpecs, len(r.in.queries))])
	const scratch = "handler_ingest"
	create := mustJSON(api.CreateRequest{Dims: r.w.dims, SegmentSize: r.w.segSize})
	note(serve(h, http.MethodPut, colURL("", scratch), create))
	ingest := ingestBodies(r.in.data, ingestBatch)
	at := 0
	secs := interleaved(
		func() {
			for _, b := range batches {
				note(serve(h, http.MethodPost, batchURL("", collection), b))
			}
		},
		func() {
			for i := 0; i < 16; i++ {
				note(serve(h, http.MethodPost, ingestURL("", scratch), ingest[at%len(ingest)]))
				at++
			}
		},
	)
	note(serve(h, http.MethodDelete, colURL("", scratch), nil))
	return secs[0] * us / float64(len(batches)*batchSpecs), secs[1] * us / 16, err
}
