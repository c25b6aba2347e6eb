package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bond"
	"bond/internal/api"
)

// TestQueryOverflowRejected: a query some score of which would overflow
// is a 400 naming the problem on /query and /query/batch, for every
// strategy — it used to answer 200 with zero results (every score +Inf,
// the engine's "no candidate" sentinel) or, when the +Inf reached the
// encoder, 200 with an empty body — while in-range queries on the same
// collection answer as before.
func TestQueryOverflowRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, vectors := range map[string][][]float64{
		"unit": {{1, 0}, {0, 0}},
		"huge": {{1e308, 1e308}, {0, 0}},
	} {
		doJSON(t, http.MethodPut, ts.URL+"/collections/"+name, api.CreateRequest{Dims: 2}, nil)
		ingestBatch(t, ts.URL, name, vectors)
	}
	base := ts.URL + "/collections/"
	for _, strategy := range []string{"exact", "bond", "auto"} {
		for _, tc := range []struct {
			col  string
			spec api.QuerySpec
			ok   bool
		}{
			{"unit", api.QuerySpec{Query: []float64{-1e200, 0.5}, K: 2, Criterion: "eq"}, false},
			{"huge", api.QuerySpec{Query: []float64{1e308, 1e308}, K: 2, Criterion: "hq"}, false},
			{"unit", api.QuerySpec{Query: []float64{-1e150, 0.5}, K: 2, Criterion: "eq"}, true},
			{"huge", api.QuerySpec{Query: []float64{1, 1}, K: 2, Criterion: "hq"}, true},
		} {
			tc.spec.Strategy = strategy
			var single api.QueryResponse
			var e api.Error
			out := any(&e)
			if tc.ok {
				out = &single
			}
			code := doJSON(t, http.MethodPost, base+tc.col+"/query", tc.spec, out)
			if !tc.ok {
				if code != http.StatusBadRequest || !strings.Contains(e.Error, "non-finite") {
					t.Errorf("%s %s %v: status %d %q, want 400 naming the overflow", strategy, tc.col, tc.spec.Query, code, e.Error)
				}
				e = api.Error{}
				code = doJSON(t, http.MethodPost, base+tc.col+"/query/batch", api.BatchRequest{Queries: []api.QuerySpec{tc.spec}}, &e)
				if code != http.StatusBadRequest || !strings.Contains(e.Error, "non-finite") {
					t.Errorf("%s %s %v batch: status %d %q, want 400 naming the overflow", strategy, tc.col, tc.spec.Query, code, e.Error)
				}
				continue
			}
			if code != http.StatusOK || len(single.Results) != 2 {
				t.Errorf("%s %s %v: status %d, %d results, want 200 with both vectors", strategy, tc.col, tc.spec.Query, code, len(single.Results))
			}
		}
	}
}

// replayWriter is a ResponseWriter the allocation test reuses across
// requests, so only the handler's own allocations are counted.
type replayWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *replayWriter) Header() http.Header         { return w.h }
func (w *replayWriter) WriteHeader(code int)        { w.code = code }
func (w *replayWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

func (w *replayWriter) reset() {
	clear(w.h)
	w.code = http.StatusOK
	w.body.Reset()
}

// rewindBody is a request body that can be replayed without allocating.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// TestQueryHandlerAllocations pins what one request costs the handler in
// allocations, the wire codec included, so that reflection (encoding/json
// decodes a 64-d query in ~20 allocations) cannot creep back unnoticed.
// The ceilings are the measured counts, not budgets with slack; a change
// that moves one must say why. They are ceilings rather than equalities
// because the ingest mean is fractional — the active segment's 65 columns
// (64 dimensions and the totals) grow by doubling, once within the 20
// measured requests — so a garbage collection that empties the codec's
// pools mid-measurement can tip it up by one.
func TestQueryHandlerAllocations(t *testing.T) {
	const dims = 64
	s, _ := newTestServer(t, Config{Fsync: bond.FsyncNever})
	h := s.Handler()
	rng := rand.New(rand.NewSource(1))
	vector := func() []float64 {
		v := make([]float64, dims)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	data := make([][]float64, 1024)
	for i := range data {
		data[i] = vector()
	}
	specs := make([]api.QuerySpec, 32)
	for i := range specs {
		specs[i] = api.QuerySpec{Query: vector(), K: 10, Criterion: "eq", Strategy: "bond"}
	}
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, r := range []*http.Request{
		// One active segment the test never fills: a seal would make the
		// ingest count depend on the segment backing (mapped or heap).
		httptest.NewRequest(http.MethodPut, "/collections/c", bytes.NewReader(mustJSON(api.CreateRequest{Dims: dims, SegmentSize: 1 << 14}))),
		httptest.NewRequest(http.MethodPost, "/collections/c/vectors", bytes.NewReader(mustJSON(api.IngestRequest{Vectors: data}))),
	} {
		rec := httptest.NewRecorder()
		if h.ServeHTTP(rec, r); rec.Code/100 != 2 {
			t.Fatalf("%s %s: status %d: %s", r.Method, r.URL, rec.Code, rec.Body.Bytes())
		}
	}

	w := &replayWriter{h: http.Header{}}
	for _, tc := range []struct {
		name, method, path string
		body               []byte
		ctype              string
		want               float64
	}{
		// 2 in Collection.Query (bond.query_allocs); the route's path
		// match; the request's MaxBytesReader; the decoded spec and the
		// answer, which escape through the codec's interface parameters;
		// the query vector; the answer's neighbor list; the Content-Type
		// header value.
		{"query", http.MethodPost, "/collections/c/query", mustJSON(specs[0]), "", 9},
		// Per spec: its query vector, its answer's neighbor list and the
		// engine's per-query results; plus the batch's constant handful.
		{"batch32", http.MethodPost, "/collections/c/query/batch", mustJSON(api.BatchRequest{Queries: specs}), "", 138},
		// The decoded vectors (the outer slice and one backing array), the
		// WAL record, the collection's append path and the delete bitmap's
		// growth; plus 65 / 20 for the columns' one doubling.
		{"ingest64", http.MethodPost, "/collections/c/vectors", mustJSON(api.IngestRequest{Vectors: data[:64]}), "", 13},
		// The same ingest as the float64 frames a coordinator sends: the
		// frames decoder's two allocations take the JSON decoder's place
		// (both rows measure 10 between doublings), and the columns'
		// doubling at 4 096 rows falls within its 20 requests.
		{"ingest64frames", http.MethodPost, "/collections/c/vectors", api.AppendVectors(nil, data[64:128]), api.FramesType, 14},
		// The readback the SIGKILL test audits with: the route's two path
		// wildcards, the vector's copy, the answer and its encoding/json
		// bytes (a cold type: no append encoder), the Content-Type header
		// value.
		{"vector", http.MethodGet, "/collections/c/vectors/7", nil, "", 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled {
				t.Skip("allocation counts are not reproducible under -race")
			}
			r := httptest.NewRequest(tc.method, tc.path, nil)
			if tc.ctype != "" {
				r.Header.Set("Content-Type", tc.ctype)
			}
			rd := &rewindBody{}
			run := func() {
				w.reset()
				rd.Reset(tc.body)
				r.Body = rd
				h.ServeHTTP(w, r)
				if w.code != http.StatusOK {
					t.Fatalf("status %d: %s", w.code, w.body.Bytes())
				}
			}
			for i := 0; i < 4; i++ { // warm the pools
				run()
			}
			got := testing.AllocsPerRun(20, run)
			t.Logf("%s: %.1f allocs/request", tc.name, got)
			if got > tc.want {
				t.Errorf("%s: %.1f allocs/request, ceiling %.0f", tc.name, got, tc.want)
			}
		})
	}
}
