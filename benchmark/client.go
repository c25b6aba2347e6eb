package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"bond/internal/api"
	"bond/internal/seqscan"
	"bond/internal/topk"
)

// tally counts operations sent to the system and the ones that failed:
// transport errors, non-2xx, partial or truncated answers, and oracle
// mismatches. The first few failures are kept verbatim for the report.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	rejected  atomic.Int64 // 503s: admission turned the request away

	mu     sync.Mutex
	sample []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.sample) < 5 {
		t.sample = append(t.sample, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// conn is one keep-alive client connection's worth of state. It is not
// safe for concurrent use; every load-generating goroutine owns one.
type conn struct {
	hc  *http.Client
	t   *tally
	buf bytes.Buffer
}

// newTransport returns a transport limited to n connections per host, so
// "n clients" means n sockets.
func newTransport(n int) *http.Transport {
	return &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}
}

func newConn(tr *http.Transport, t *tally) *conn {
	return &conn{hc: &http.Client{Transport: tr}, t: t}
}

// do sends one request and returns the response body, valid until the
// next call. Every call is one attempted operation, and anything but a
// 2xx is a failed one.
func (c *conn) do(method, url string, body []byte) ([]byte, error) {
	c.t.attempted.Add(1)
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		c.t.fail("%s %s: %v", method, url, err)
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.t.fail("%s %s: %v", method, url, err)
		return nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		c.t.fail("%s %s: read body: %v", method, url, err)
		return nil, err
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		c.t.rejected.Add(1)
	}
	if resp.StatusCode/100 != 2 {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
		c.t.fail("%s %s: %v", method, url, err)
		return nil, err
	}
	return c.buf.Bytes(), nil
}

// query posts one pre-encoded query spec and decodes the answer. A
// degraded answer (partial, truncated, or short) is a failed operation.
func (c *conn) query(url string, body []byte, out *api.QueryResponse) error {
	raw, err := c.do(http.MethodPost, url, body)
	if err != nil {
		return err
	}
	*out = api.QueryResponse{}
	if err := json.Unmarshal(raw, out); err != nil {
		c.t.fail("POST %s: decode: %v", url, err)
		return err
	}
	return c.checkAnswer(url, out)
}

func (c *conn) checkAnswer(url string, r *api.QueryResponse) error {
	if r.Partial || r.Truncated || len(r.Results) != topK {
		err := fmt.Errorf("degraded answer: partial=%v truncated=%v results=%d", r.Partial, r.Truncated, len(r.Results))
		c.t.fail("POST %s: %v", url, err)
		return err
	}
	return nil
}

// batch posts one pre-encoded batch request and checks every answer in
// it.
func (c *conn) batch(url string, body []byte, out *api.BatchResponse) error {
	raw, err := c.do(http.MethodPost, url, body)
	if err != nil {
		return err
	}
	*out = api.BatchResponse{}
	if err := json.Unmarshal(raw, out); err != nil {
		c.t.fail("POST %s: decode: %v", url, err)
		return err
	}
	if len(out.Results) != batchSpecs {
		err := fmt.Errorf("batch returned %d answers, want %d", len(out.Results), batchSpecs)
		c.t.fail("POST %s: %v", url, err)
		return err
	}
	for i := range out.Results {
		if err := c.checkAnswer(url, &out.Results[i]); err != nil {
			return err
		}
	}
	return nil
}

// --- request bodies ---------------------------------------------------------

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire structs of finite floats always encode
	}
	return b
}

// servedStrategy is the access path every driven request pins. The
// server's default, auto, picks per segment from a cost model fed by
// measured time, and on uniform data it flips between bond and vafile
// from round to round of one run — query_qps moved 2× between runs of
// the same code and seed. BOND is the paper's algorithm and does the same
// work for the same query every time; what auto would have chosen, and
// what that costs, is the plan layer's business (plan.auto_regret,
// plan.path_share.*).
const servedStrategy = "bond"

func (w workload) spec(q []float64) api.QuerySpec {
	return api.QuerySpec{Query: q, K: topK, Criterion: w.criterion, Strategy: servedStrategy}
}

func (w workload) queryBodies(queries [][]float64) [][]byte {
	out := make([][]byte, len(queries))
	for i, q := range queries {
		out[i] = mustJSON(w.spec(q))
	}
	return out
}

func (w workload) batchBodies(queries [][]float64) [][]byte {
	var out [][]byte
	for at := 0; at+batchSpecs <= len(queries); at += batchSpecs {
		req := api.BatchRequest{}
		for _, q := range queries[at : at+batchSpecs] {
			req.Queries = append(req.Queries, w.spec(q))
		}
		out = append(out, mustJSON(req))
	}
	return out
}

// ingestBodies cuts vectors into per-request bodies of size each,
// dropping a short tail so every request carries the same work.
func ingestBodies(vectors [][]float64, size int) [][]byte {
	var out [][]byte
	for at := 0; at+size <= len(vectors); at += size {
		out = append(out, mustJSON(api.IngestRequest{Vectors: vectors[at : at+size]}))
	}
	return out
}

func queryURL(base, col string) string  { return base + "/collections/" + col + "/query" }
func batchURL(base, col string) string  { return base + "/collections/" + col + "/query/batch" }
func ingestURL(base, col string) string { return base + "/collections/" + col + "/vectors" }
func colURL(base, col string) string    { return base + "/collections/" + col }
func vectorURL(base, col string, id int) string {
	return base + "/collections/" + col + "/vectors/" + strconv.Itoa(id)
}

// --- oracle -----------------------------------------------------------------

// scoreTol is how far a served score may sit from the oracle's: the
// engine sums dimensions in pruning order, the oracle left to right.
const scoreTol = 1e-9

// oracleTopK is the sequential-scan answer over the driver's own copy of
// the live vectors; ids are positions in live.
func (w workload) oracleTopK(live [][]float64, q []float64) []topk.Result {
	if w.criterion == "hq" {
		rs, _ := seqscan.SearchHistogram(live, q, topK)
		return rs
	}
	rs, _ := seqscan.SearchEuclidean(live, q, topK)
	return rs
}

// score is the exact similarity of v to q under the workload's
// criterion, summed the way the oracle sums it.
func (w workload) score(v, q []float64) float64 {
	s := 0.0
	for d, x := range v {
		if w.criterion == "hq" {
			s += math.Min(x, q[d])
		} else {
			s += (x - q[d]) * (x - q[d])
		}
	}
	return s
}

// verify checks a served answer against the oracle's for the same query:
// scores agree rank by rank within scoreTol, and ids agree except where
// a tie within scoreTol lets two vectors swap — in which case the served
// id must be a distinct live vector whose true score is the one served.
// idBase is the served id of live[0].
func (w workload) verify(got []api.Neighbor, want []topk.Result, live [][]float64, q []float64, idBase int) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d results, oracle has %d", len(got), len(want))
	}
	seen := make(map[int]bool, len(got))
	for i, g := range got {
		if math.Abs(g.Score-want[i].Score) > scoreTol {
			return fmt.Errorf("rank %d: score %v, oracle %v", i, g.Score, want[i].Score)
		}
		if seen[g.ID] {
			return fmt.Errorf("rank %d: id %d served twice", i, g.ID)
		}
		seen[g.ID] = true
		if g.ID == want[i].ID+idBase {
			continue
		}
		at := g.ID - idBase
		if at < 0 || at >= len(live) {
			return fmt.Errorf("rank %d: id %d is not a live vector", i, g.ID)
		}
		if s := w.score(live[at], q); math.Abs(s-g.Score) > scoreTol {
			return fmt.Errorf("rank %d: id %d (oracle %d) scores %v, served %v", i, g.ID, want[i].ID+idBase, s, g.Score)
		}
	}
	return nil
}
