package shard

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bond/internal/api"
)

// ingestBoth pushes the same batches through the coordinator and the
// single-node oracle, asserting the coordinator assigns exactly the ids
// the single node does — the lockstep invariant all routing rests on.
func ingestBoth(t *testing.T, cl *testCluster, oracle string, name string, batches [][][]float64) {
	t.Helper()
	for bi, batch := range batches {
		var co, single api.IngestResponse
		if status, raw := doJSON(t, http.MethodPost, cl.front.URL+"/collections/"+name+"/vectors",
			api.IngestRequest{Vectors: batch}, &co); status != http.StatusOK {
			t.Fatalf("coordinator ingest batch %d: status %d: %s", bi, status, raw)
		}
		if status, raw := doJSON(t, http.MethodPost, oracle+"/collections/"+name+"/vectors",
			api.IngestRequest{Vectors: batch}, &single); status != http.StatusOK {
			t.Fatalf("oracle ingest batch %d: status %d: %s", bi, status, raw)
		}
		if co.FirstID != single.FirstID || co.Count != single.Count {
			t.Fatalf("batch %d: coordinator assigned [%d,+%d), oracle [%d,+%d)",
				bi, co.FirstID, co.Count, single.FirstID, single.Count)
		}
	}
}

// TestCoordinatorMatchesSingleNodeOracle is the healthy-cluster
// acceptance test: every query answered by a 3-shard coordinator must be
// byte-identical to the same query against one node holding all the
// data, across strategies, criteria, query-by-example, batches, and
// deletes.
func TestCoordinatorMatchesSingleNodeOracle(t *testing.T) {
	cl := newTestCluster(t, 3, fastTestConfig())
	oracle := newOracleServer(t)
	const name, dims = "imgs", 8

	create := api.CreateRequest{Dims: dims, SegmentSize: 16}
	if status, raw := doJSON(t, http.MethodPut, cl.front.URL+"/collections/"+name, create, nil); status != http.StatusCreated {
		t.Fatalf("coordinator create: status %d: %s", status, raw)
	}
	if status, raw := doJSON(t, http.MethodPut, oracle.URL+"/collections/"+name, create, nil); status != http.StatusCreated {
		t.Fatalf("oracle create: status %d: %s", status, raw)
	}

	vectors := deterministicVectors(60, dims)
	// Ragged batch sizes: single vectors and batches must round-robin
	// identically.
	ingestBoth(t, cl, oracle.URL, name, [][][]float64{
		vectors[0:1], vectors[1:8], vectors[8:28], vectors[28:60],
	})

	query := deterministicVectors(61, dims)[60]
	// Pinned strategies only: "auto" may legitimately pick different
	// per-segment strategies on a 20-vector shard than on the 60-vector
	// single node, changing float summation order in the last ulp.
	for _, strategy := range []string{"exact", "bond", "vafile", "compressed"} {
		for _, criterion := range []string{"hq", "eq"} {
			spec := api.QuerySpec{Query: query, K: 10, Criterion: criterion, Strategy: strategy}
			var coResp, singleResp rankedBody
			if status, raw := doJSON(t, http.MethodPost, cl.front.URL+"/collections/"+name+"/query", spec, &coResp); status != http.StatusOK {
				t.Fatalf("%s/%s coordinator query: status %d: %s", strategy, criterion, status, raw)
			}
			if status, raw := doJSON(t, http.MethodPost, oracle.URL+"/collections/"+name+"/query", spec, &singleResp); status != http.StatusOK {
				t.Fatalf("%s/%s oracle query: status %d: %s", strategy, criterion, status, raw)
			}
			if string(coResp.Results) != string(singleResp.Results) {
				t.Fatalf("%s/%s: coordinator results diverge from single node:\n  coordinator: %s\n  single node: %s",
					strategy, criterion, coResp.Results, singleResp.Results)
			}
			if coResp.Partial {
				t.Fatalf("%s/%s: healthy cluster answered partial", strategy, criterion)
			}
		}
	}

	// Query-by-example: the coordinator must resolve the global id
	// against its owner shard and serve the same answer.
	id := 13
	spec := api.QuerySpec{ID: &id, K: 5, Strategy: "exact"}
	var coResp, singleResp rankedBody
	if status, raw := doJSON(t, http.MethodPost, cl.front.URL+"/collections/"+name+"/query", spec, &coResp); status != http.StatusOK {
		t.Fatalf("coordinator query-by-example: status %d: %s", status, raw)
	}
	if status, raw := doJSON(t, http.MethodPost, oracle.URL+"/collections/"+name+"/query", spec, &singleResp); status != http.StatusOK {
		t.Fatalf("oracle query-by-example: status %d: %s", status, raw)
	}
	if string(coResp.Results) != string(singleResp.Results) {
		t.Fatalf("query-by-example diverges:\n  coordinator: %s\n  single node: %s", coResp.Results, singleResp.Results)
	}

	// Batch queries, mixed criteria in one request.
	batch := api.BatchRequest{Queries: []api.QuerySpec{
		{Query: vectors[3], K: 7, Criterion: "hq", Strategy: "exact"},
		{Query: vectors[40], K: 4, Criterion: "eq", Strategy: "bond"},
	}}
	var coBatch, singleBatch struct {
		Results []rankedBody `json:"results"`
	}
	if status, raw := doJSON(t, http.MethodPost, cl.front.URL+"/collections/"+name+"/query/batch", batch, &coBatch); status != http.StatusOK {
		t.Fatalf("coordinator batch: status %d: %s", status, raw)
	}
	if status, raw := doJSON(t, http.MethodPost, oracle.URL+"/collections/"+name+"/query/batch", batch, &singleBatch); status != http.StatusOK {
		t.Fatalf("oracle batch: status %d: %s", status, raw)
	}
	if len(coBatch.Results) != len(singleBatch.Results) {
		t.Fatalf("batch sizes diverge: %d vs %d", len(coBatch.Results), len(singleBatch.Results))
	}
	for i := range coBatch.Results {
		if string(coBatch.Results[i].Results) != string(singleBatch.Results[i].Results) {
			t.Fatalf("batch query %d diverges:\n  coordinator: %s\n  single node: %s",
				i, coBatch.Results[i].Results, singleBatch.Results[i].Results)
		}
	}

	// Vector readback routes to the owner and translates ids both ways.
	for _, g := range []int{0, 1, 2, 29, 59} {
		var coVec, singleVec api.VectorResponse
		if status, raw := doJSON(t, http.MethodGet, fmt.Sprintf("%s/collections/%s/vectors/%d", cl.front.URL, name, g), nil, &coVec); status != http.StatusOK {
			t.Fatalf("coordinator get vector %d: status %d: %s", g, status, raw)
		}
		if status, _ := doJSON(t, http.MethodGet, fmt.Sprintf("%s/collections/%s/vectors/%d", oracle.URL, name, g), nil, &singleVec); status != http.StatusOK {
			t.Fatalf("oracle get vector %d: status %d", g, status)
		}
		if coVec.ID != g {
			t.Fatalf("vector %d came back with id %d", g, coVec.ID)
		}
		if fmt.Sprint(coVec.Vector) != fmt.Sprint(singleVec.Vector) {
			t.Fatalf("vector %d diverges", g)
		}
	}
	if status, _ := doJSON(t, http.MethodGet, cl.front.URL+"/collections/"+name+"/vectors/999", nil, nil); status != http.StatusNotFound {
		t.Fatalf("out-of-range vector read: status %d, want 404", status)
	}

	// Deletes route the same way; post-delete answers must still match.
	for _, g := range []int{13, 28} {
		if status, raw := doJSON(t, http.MethodDelete, fmt.Sprintf("%s/collections/%s/vectors/%d", cl.front.URL, name, g), nil, nil); status != http.StatusNoContent {
			t.Fatalf("coordinator delete %d: status %d: %s", g, status, raw)
		}
		if status, _ := doJSON(t, http.MethodDelete, fmt.Sprintf("%s/collections/%s/vectors/%d", oracle.URL, name, g), nil, nil); status != http.StatusNoContent {
			t.Fatalf("oracle delete %d: status %d", g, status)
		}
	}
	spec = api.QuerySpec{Query: query, K: 10, Strategy: "exact"}
	if status, raw := doJSON(t, http.MethodPost, cl.front.URL+"/collections/"+name+"/query", spec, &coResp); status != http.StatusOK {
		t.Fatalf("post-delete coordinator query: status %d: %s", status, raw)
	}
	if _, _ = doJSON(t, http.MethodPost, oracle.URL+"/collections/"+name+"/query", spec, &singleResp); string(coResp.Results) != string(singleResp.Results) {
		t.Fatalf("post-delete results diverge:\n  coordinator: %s\n  single node: %s", coResp.Results, singleResp.Results)
	}

	// Aggregated collection stats must add up to the single node's view.
	var coStats struct {
		Dims int `json:"dims"`
		Len  int `json:"len"`
		Live int `json:"live"`
	}
	if status, raw := doJSON(t, http.MethodGet, cl.front.URL+"/collections/"+name, nil, &coStats); status != http.StatusOK {
		t.Fatalf("coordinator collection stats: status %d: %s", status, raw)
	}
	if coStats.Dims != dims || coStats.Len != 60 || coStats.Live != 58 {
		t.Fatalf("aggregated stats = %+v, want dims %d len 60 live 58", coStats, dims)
	}

	// Collection listing is the union of the shards'.
	var list struct {
		Collections []string `json:"collections"`
	}
	if status, _ := doJSON(t, http.MethodGet, cl.front.URL+"/collections", nil, &list); status != http.StatusOK || len(list.Collections) != 1 || list.Collections[0] != name {
		t.Fatalf("collection list = %v (status %d)", list.Collections, status)
	}
}

// TestCoordinatorValidation pins the 4xx surface: bad specs fail fast at
// the coordinator without consuming shard budget.
func TestCoordinatorValidation(t *testing.T) {
	cl := newTestCluster(t, 2, fastTestConfig())
	if status, _ := doJSON(t, http.MethodPut, cl.front.URL+"/collections/c", api.CreateRequest{Dims: 4}, nil); status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	cases := []struct {
		name    string
		spec    api.QuerySpec
		wantErr string
	}{
		{"no query", api.QuerySpec{K: 3}, ""},
		{"bad k", api.QuerySpec{Query: []float64{1, 2, 3, 4}}, ""},
		{"bad criterion", api.QuerySpec{Query: []float64{1, 2, 3, 4}, K: 3, Criterion: "nope"}, ""},
		{"bad policy", api.QuerySpec{Query: []float64{1, 2, 3, 4}, K: 3, Policy: "lenient"}, ""},
		{"query and id", api.QuerySpec{Query: []float64{1, 2, 3, 4}, ID: new(int), K: 3}, ""},
		// The shards reject the strategy; their 400 and its list of valid
		// strategies pass through the coordinator.
		{"retired mil strategy", api.QuerySpec{Query: []float64{1, 2, 3, 4}, K: 3, Strategy: "mil"},
			"auto, bond, compressed, vafile, or exact"},
	}
	for _, tc := range cases {
		var e api.Error
		if status, _ := doJSON(t, http.MethodPost, cl.front.URL+"/collections/c/query", tc.spec, &e); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, status)
		}
		if !strings.Contains(e.Error, tc.wantErr) {
			t.Errorf("%s: error %q, want it to contain %q", tc.name, e.Error, tc.wantErr)
		}
	}
	if status, _ := doJSON(t, http.MethodPost, cl.front.URL+"/collections/c/recluster", map[string]int{}, nil); status != http.StatusNotImplemented {
		t.Error("recluster on the coordinator should be 501")
	}
}

// TestCoordinatorStatsEndpoint checks the /stats robustness gauges are
// wired through.
func TestCoordinatorStatsEndpoint(t *testing.T) {
	cl := newTestCluster(t, 2, fastTestConfig())
	if status, _ := doJSON(t, http.MethodPut, cl.front.URL+"/collections/c", api.CreateRequest{Dims: 4}, nil); status != http.StatusCreated {
		t.Fatal("create failed")
	}
	doJSON(t, http.MethodPost, cl.front.URL+"/collections/c/vectors", api.IngestRequest{Vectors: deterministicVectors(6, 4)}, nil)
	doJSON(t, http.MethodPost, cl.front.URL+"/collections/c/query", api.QuerySpec{Query: []float64{1, 0, 0, 0}, K: 3}, nil)

	var st coordinatorStats
	if status, raw := doJSON(t, http.MethodGet, cl.front.URL+"/stats", nil, &st); status != http.StatusOK {
		t.Fatalf("/stats: status %d: %s", status, raw)
	}
	if st.Mode != "coordinator" || st.ShardCount != 2 || len(st.Shards) != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Queries != 1 || st.Fanouts == 0 {
		t.Fatalf("queries = %d, fanouts = %d", st.Queries, st.Fanouts)
	}
	for i, s := range st.Shards {
		if s.ID != i || !s.Healthy || s.Breaker != "closed" || s.Requests == 0 {
			t.Fatalf("shard %d gauges = %+v", i, s)
		}
	}
}

// TestCoordinatorOlderLayoutIsNotRetried puts what an earlier release
// left under one collection name into every shard's data directory — a
// snapshot file on shard 0, a directory with a statistics block on
// shard 1 — and drives that name through a coordinator with the default
// attempts and breaker threshold (three and 5) and hedging on. Each
// request answers the shards' 409 older_layout; since the refusal is the
// files' condition and not a fault, no shard call is retried, hedged or
// counted against a breaker, and a healthy collection on the same shards
// keeps answering.
func TestCoordinatorOlderLayoutIsNotRetried(t *testing.T) {
	cl := newTestCluster(t, 2, Config{Envelope: Envelope{BackoffBase: time.Millisecond, HedgeAfter: time.Second}})
	legacy := filepath.Join("..", "..", "testdata", "legacy")
	img, err := os.ReadFile(filepath.Join(legacy, "seg-v2.bond"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cl.dirs[0], "old.bond"), img, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.CopyFS(filepath.Join(cl.dirs[1], "old.bond"), os.DirFS(filepath.Join(legacy, "dir-stats-block"))); err != nil {
		t.Fatal(err)
	}

	for range 4 {
		for _, req := range []struct {
			method, path string
			body         any
		}{
			{http.MethodGet, "/collections/old", nil},
			{http.MethodPut, "/collections/old", api.CreateRequest{Dims: 6}},
			{http.MethodPost, "/collections/old/query", api.QuerySpec{Query: make([]float64, 6), K: 3}},
		} {
			var e api.Error
			if status, raw := doJSON(t, req.method, cl.front.URL+req.path, req.body, &e); status != http.StatusConflict || e.Code != "older_layout" {
				t.Fatalf("%s %s: status %d: %s, want 409 older_layout", req.method, req.path, status, raw)
			}
		}
	}

	if status, raw := doJSON(t, http.MethodPut, cl.front.URL+"/collections/c", api.CreateRequest{Dims: 4}, nil); status != http.StatusCreated {
		t.Fatalf("create c: status %d: %s", status, raw)
	}
	doJSON(t, http.MethodPost, cl.front.URL+"/collections/c/vectors", api.IngestRequest{Vectors: deterministicVectors(6, 4)}, nil)
	var resp api.QueryResponse
	if status, raw := doJSON(t, http.MethodPost, cl.front.URL+"/collections/c/query", api.QuerySpec{Query: []float64{1, 0, 0, 0}, K: 3}, &resp); status != http.StatusOK || len(resp.Results) != 3 {
		t.Fatalf("query c: status %d: %s", status, raw)
	}

	var st coordinatorStats
	if status, raw := doJSON(t, http.MethodGet, cl.front.URL+"/stats", nil, &st); status != http.StatusOK {
		t.Fatalf("/stats: status %d: %s", status, raw)
	}
	for i, s := range st.Shards {
		if s.Retries != 0 || s.Hedges != 0 || s.Failures != 0 || s.FastFails != 0 || s.Breaker != "closed" || s.BreakerOpens != 0 {
			t.Fatalf("shard %d gauges = %+v, want no retry, hedge, failure or breaker opening", i, s)
		}
	}
}

// TestCoordinatorRejectsOverflowingQuery: the shards' 400 for a query
// some score of which would overflow passes through both fan-out
// endpoints. It used to be a 200 with an empty body from every shard,
// which the coordinator retried as a garbage-responding shard.
func TestCoordinatorRejectsOverflowingQuery(t *testing.T) {
	cl := newTestCluster(t, 2, fastTestConfig())
	for name, vectors := range map[string][][]float64{
		"unit": {{1, 0}, {0, 0}},
		"huge": {{1e308, 1e308}, {0, 0}},
	} {
		if status, raw := doJSON(t, http.MethodPut, cl.front.URL+"/collections/"+name, api.CreateRequest{Dims: 2}, nil); status != http.StatusCreated {
			t.Fatalf("create %s: status %d: %s", name, status, raw)
		}
		if status, raw := doJSON(t, http.MethodPost, cl.front.URL+"/collections/"+name+"/vectors",
			api.IngestRequest{Vectors: vectors}, nil); status != http.StatusOK {
			t.Fatalf("ingest %s: status %d: %s", name, status, raw)
		}
	}
	for col, spec := range map[string]api.QuerySpec{
		"unit": {Query: []float64{-1e200, 0.5}, K: 2, Criterion: "eq", Strategy: "bond"},
		"huge": {Query: []float64{1e308, 1e308}, K: 2, Criterion: "hq", Strategy: "exact"},
	} {
		base := cl.front.URL + "/collections/" + col
		for path, body := range map[string]any{
			"/query":       spec,
			"/query/batch": api.BatchRequest{Queries: []api.QuerySpec{spec}},
		} {
			var e api.Error
			status, raw := doJSON(t, http.MethodPost, base+path, body, &e)
			if status != http.StatusBadRequest || !strings.Contains(e.Error, "non-finite") {
				t.Errorf("%s %s: status %d %s, want 400 naming the overflow", col, path, status, raw)
			}
		}
	}
	for i, c := range cl.co.clients {
		if n := c.retries.Load(); n != 0 {
			t.Errorf("shard %d: %d retries, want none for a 400", i, n)
		}
	}
}
