package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bond"
	"bond/internal/api"
	"bond/internal/dataset"
)

// newTestServer returns a server over a fresh temp directory plus an
// httptest front end. The maintenance loop is off; tests drive
// RunMaintenance directly so cycles are deterministic.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s, ts
}

// doJSON issues one request with an optional JSON body and decodes the
// JSON response into out (when non-nil), returning the status code.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad response %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

// ingestBatch pushes vectors through the batch ingest endpoint.
func ingestBatch(t *testing.T, base, name string, vectors [][]float64) api.IngestResponse {
	t.Helper()
	var out api.IngestResponse
	if code := doJSON(t, http.MethodPost, base+"/collections/"+name+"/vectors",
		api.IngestRequest{Vectors: vectors}, &out); code != http.StatusOK {
		t.Fatalf("ingest: status %d", code)
	}
	return out
}

// TestEndToEndByteIdentical is the acceptance-criteria test: create a
// collection over HTTP, batch-ingest, and check that every served query
// — across criteria and strategies — returns ids and scores byte-equal
// to an in-process Collection.Query over the same data and layout
// (JSON round-trips float64 exactly, so the wire adds no error). That
// includes StrategyAuto: the served and the local collection see the same
// data and the same query history, so they choose the same paths.
func TestEndToEndByteIdentical(t *testing.T) {
	const (
		n, dims, segSize = 600, 24, 128
		k                = 10
	)
	vectors := dataset.CorelLike(n, dims, 7)

	_, ts := newTestServer(t, Config{})
	var cr api.CreateResponse
	if code := doJSON(t, http.MethodPut, ts.URL+"/collections/imgs",
		api.CreateRequest{Dims: dims, SegmentSize: segSize}, &cr); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	got := ingestBatch(t, ts.URL, "imgs", vectors)
	if got.FirstID != 0 || got.Count != n {
		t.Fatalf("ingest: got first=%d count=%d", got.FirstID, got.Count)
	}

	// The in-process oracle: same segment layout, same ingest sequence.
	local := bond.NewSegmented(dims, segSize)
	if _, err := local.AddBatchDurable(vectors); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		criterion string
		strategy  string
	}{
		{"Hq", "auto"}, {"Hq", "bond"}, {"Hq", "vafile"}, {"Hq", "exact"},
		{"Eq", "auto"}, {"Eq", "compressed"}, {"Ev", "bond"}, {"Hh", "bond"},
	} {
		t.Run(tc.criterion+"/"+tc.strategy, func(t *testing.T) {
			for _, qid := range []int{0, 17, 401} {
				var resp api.QueryResponse
				code := doJSON(t, http.MethodPost, ts.URL+"/collections/imgs/query", api.QuerySpec{
					Query: vectors[qid], K: k, Criterion: tc.criterion, Strategy: tc.strategy,
				}, &resp)
				if code != http.StatusOK {
					t.Fatalf("query: status %d", code)
				}

				crit, err := bond.ParseCriterion(tc.criterion)
				if err != nil {
					t.Fatal(err)
				}
				strat, err := bond.ParseStrategy(tc.strategy)
				if err != nil {
					t.Fatal(err)
				}
				want, err := local.Query(bond.QuerySpec{
					Query: vectors[qid], K: k, Criterion: crit, Strategy: strat,
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(resp.Results) != len(want.Results) {
					t.Fatalf("qid %d: got %d results, want %d", qid, len(resp.Results), len(want.Results))
				}
				for i, r := range resp.Results {
					w := want.Results[i]
					if r.ID != w.ID || r.Score != w.Score {
						t.Fatalf("qid %d rank %d: got (%d, %v), want (%d, %v)",
							qid, i, r.ID, r.Score, w.ID, w.Score)
					}
				}
			}
		})
	}
}

// TestQueryByExample checks the {"id": N} spec form against the stored
// vector it names.
func TestQueryByExample(t *testing.T) {
	vectors := dataset.CorelLike(200, 16, 3)
	_, ts := newTestServer(t, Config{})
	doJSON(t, http.MethodPut, ts.URL+"/collections/c", api.CreateRequest{Dims: 16}, nil)
	ingestBatch(t, ts.URL, "c", vectors)

	id := 42
	var byID, byVec api.QueryResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/collections/c/query",
		api.QuerySpec{ID: &id, K: 5}, &byID); code != http.StatusOK {
		t.Fatalf("by-id query: status %d", code)
	}
	doJSON(t, http.MethodPost, ts.URL+"/collections/c/query",
		api.QuerySpec{Query: vectors[id], K: 5}, &byVec)
	if len(byID.Results) == 0 || byID.Results[0].ID != id {
		t.Fatalf("by-id query should rank the example first, got %+v", byID.Results)
	}
	for i := range byID.Results {
		if byID.Results[i] != byVec.Results[i] {
			t.Fatalf("rank %d: by-id %+v != by-vector %+v", i, byID.Results[i], byVec.Results[i])
		}
	}
}

// TestQueryBatchMatchesSequential pins the batch endpoint against the
// one-at-a-time endpoint, mixed criteria included.
func TestQueryBatchMatchesSequential(t *testing.T) {
	vectors := dataset.CorelLike(400, 16, 11)
	_, ts := newTestServer(t, Config{})
	doJSON(t, http.MethodPut, ts.URL+"/collections/c", api.CreateRequest{Dims: 16, SegmentSize: 100}, nil)
	ingestBatch(t, ts.URL, "c", vectors)

	specs := []api.QuerySpec{
		{Query: vectors[3], K: 7, Criterion: "Hq"},
		{Query: vectors[250], K: 3, Criterion: "Eq", Strategy: "vafile"},
		{Query: vectors[99], K: 12, Criterion: "Hq", Strategy: "exact"},
	}
	var batch api.BatchResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/collections/c/query/batch",
		api.BatchRequest{Queries: specs}, &batch); code != http.StatusOK {
		t.Fatalf("batch: status %d", code)
	}
	if len(batch.Results) != len(specs) {
		t.Fatalf("batch returned %d results, want %d", len(batch.Results), len(specs))
	}
	for i, spec := range specs {
		var single api.QueryResponse
		doJSON(t, http.MethodPost, ts.URL+"/collections/c/query", spec, &single)
		if len(single.Results) != len(batch.Results[i].Results) {
			t.Fatalf("query %d: batch %d results, single %d", i,
				len(batch.Results[i].Results), len(single.Results))
		}
		for j := range single.Results {
			if single.Results[j] != batch.Results[i].Results[j] {
				t.Fatalf("query %d rank %d: batch %+v != single %+v",
					i, j, batch.Results[i].Results[j], single.Results[j])
			}
		}
	}
}

// TestExplainEndpoint checks that both explain forms return the rendered
// per-segment plan alongside the results.
func TestExplainEndpoint(t *testing.T) {
	vectors := dataset.CorelLike(500, 16, 5)
	_, ts := newTestServer(t, Config{})
	doJSON(t, http.MethodPut, ts.URL+"/collections/c", api.CreateRequest{Dims: 16, SegmentSize: 100}, nil)
	ingestBatch(t, ts.URL, "c", vectors)

	var exp api.ExplainResponse
	if code := doJSON(t, http.MethodGet,
		ts.URL+"/collections/c/explain?id=17&k=5&strategy=auto", nil, &exp); code != http.StatusOK {
		t.Fatalf("GET explain: status %d", code)
	}
	if len(exp.Results) != 5 {
		t.Fatalf("explain returned %d results, want 5", len(exp.Results))
	}
	for _, want := range []string{"Query: k=5", "seg", "path", "Total:"} {
		if !strings.Contains(exp.Plan, want) {
			t.Fatalf("plan missing %q:\n%s", want, exp.Plan)
		}
	}
	// One rendered line per planned segment (5 segments of 100), plus the
	// query, column-header and total lines.
	if lines := strings.Count(exp.Plan, "\n"); lines < 8 {
		t.Fatalf("plan suspiciously short (%d lines):\n%s", lines, exp.Plan)
	}

	var post api.ExplainResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/collections/c/explain",
		api.QuerySpec{Query: vectors[17], K: 5}, &post); code != http.StatusOK {
		t.Fatalf("POST explain: status %d", code)
	}
	for i := range exp.Results {
		if exp.Results[i] != post.Results[i] {
			t.Fatalf("rank %d: GET %+v != POST %+v", i, exp.Results[i], post.Results[i])
		}
	}
}

// TestMILStrategyRejected pins that the MIL reference engine is not
// served: "mil" fails like any unknown strategy, with a 400 naming the
// five valid ones, on every endpoint that takes a spec.
func TestMILStrategyRejected(t *testing.T) {
	vectors := dataset.CorelLike(50, 8, 11)
	_, ts := newTestServer(t, Config{})
	doJSON(t, http.MethodPut, ts.URL+"/collections/c", api.CreateRequest{Dims: 8}, nil)
	ingestBatch(t, ts.URL, "c", vectors)

	spec := api.QuerySpec{Query: vectors[0], K: 3, Strategy: "mil"}
	base := ts.URL + "/collections/c"
	for _, tc := range []struct {
		name, method, url string
		body              any
	}{
		{"query", http.MethodPost, base + "/query", spec},
		{"batch", http.MethodPost, base + "/query/batch", api.BatchRequest{Queries: []api.QuerySpec{spec}}},
		{"GET explain", http.MethodGet, base + "/explain?id=0&k=3&strategy=mil", nil},
		{"POST explain", http.MethodPost, base + "/explain", spec},
	} {
		var e api.Error
		if code := doJSON(t, tc.method, tc.url, tc.body, &e); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
		if !strings.Contains(e.Error, "auto, bond, compressed, vafile, or exact") {
			t.Errorf("%s: error %q does not list the valid strategies", tc.name, e.Error)
		}
	}
}

// TestCatalogLifecycle exercises create/list/stats/drop with their error
// statuses.
func TestCatalogLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	if code := doJSON(t, http.MethodPut, ts.URL+"/collections/bad..name",
		api.CreateRequest{Dims: 4}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad name: status %d", code)
	}
	if code := doJSON(t, http.MethodPut, ts.URL+"/collections/a",
		api.CreateRequest{Dims: 0}, nil); code != http.StatusBadRequest {
		t.Fatalf("zero dims: status %d", code)
	}
	if code := doJSON(t, http.MethodPut, ts.URL+"/collections/a",
		api.CreateRequest{Dims: 8}, nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	var cr api.CreateResponse
	if code := doJSON(t, http.MethodPut, ts.URL+"/collections/a",
		api.CreateRequest{Dims: 8}, &cr); code != http.StatusOK || cr.Created {
		t.Fatalf("idempotent create: status %d created=%v", code, cr.Created)
	}
	if code := doJSON(t, http.MethodPut, ts.URL+"/collections/a",
		api.CreateRequest{Dims: 9}, nil); code != http.StatusConflict {
		t.Fatalf("dims mismatch: status %d", code)
	}

	var list map[string][]string
	doJSON(t, http.MethodGet, ts.URL+"/collections", nil, &list)
	if len(list["collections"]) != 1 || list["collections"][0] != "a" {
		t.Fatalf("list: %v", list)
	}

	var st bond.CollectionStats
	if code := doJSON(t, http.MethodGet, ts.URL+"/collections/a", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.Dims != 8 || st.Segments != 1 {
		t.Fatalf("stats: %+v", st)
	}

	if code := doJSON(t, http.MethodDelete, ts.URL+"/collections/a", nil, nil); code != http.StatusNoContent {
		t.Fatalf("drop: status %d", code)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/collections/a", nil, nil); code != http.StatusNotFound {
		t.Fatalf("drop again: status %d", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/collections/a/query",
		api.QuerySpec{Query: []float64{1}, K: 1}, nil); code != http.StatusNotFound {
		t.Fatalf("query dropped: status %d", code)
	}
}

// TestIngestValidation checks the 400 paths of the ingest endpoint.
func TestIngestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doJSON(t, http.MethodPut, ts.URL+"/collections/c", api.CreateRequest{Dims: 3}, nil)

	for name, body := range map[string]api.IngestRequest{
		"empty":       {},
		"wrong dims":  {Vector: []float64{1, 2}},
		"mixed batch": {Vectors: [][]float64{{1, 2, 3}, {1}}},
		"both forms":  {Vector: []float64{1, 2, 3}, Vectors: [][]float64{{1, 2, 3}}},
	} {
		if code := doJSON(t, http.MethodPost, ts.URL+"/collections/c/vectors", body, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/collections/c/vectors",
		map[string]any{"vektor": []float64{1, 2, 3}}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", code)
	}
}

// TestBodySizeCap checks that an oversized request body is rejected
// before it is buffered rather than ballooning memory.
func TestBodySizeCap(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	doJSON(t, http.MethodPut, ts.URL+"/collections/c", api.CreateRequest{Dims: 3}, nil)

	big := make([][]float64, 64)
	for i := range big {
		big[i] = []float64{0.1, 0.2, 0.3}
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/collections/c/vectors",
		api.IngestRequest{Vectors: big}, nil); code != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d, want 400", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/collections/c/vectors",
		api.IngestRequest{Vector: []float64{0.1, 0.2, 0.3}}, nil); code != http.StatusOK {
		t.Fatalf("small body after cap rejection: status %d, want 200", code)
	}
}

// TestFramesIngestRefusals: a float64-frames ingest the route cannot take
// whole — a non-finite coordinate, the wrong dims, a body short of or past
// what its header announces, a body over the cap — is a 400 that commits
// nothing, and a good one after them takes id 0.
func TestFramesIngestRefusals(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	doJSON(t, http.MethodPut, ts.URL+"/collections/c", api.CreateRequest{Dims: 3}, nil)
	good := api.AppendVectors(nil, [][]float64{{0.1, 0.2, 0.3}})
	big := make([][]float64, 16)
	for i := range big {
		big[i] = []float64{0.1, 0.2, 0.3}
	}
	length := func() int {
		var st struct {
			Len int `json:"len"`
		}
		if code := doJSON(t, http.MethodGet, ts.URL+"/collections/c", nil, &st); code != http.StatusOK {
			t.Fatalf("stats: status %d", code)
		}
		return st.Len
	}
	for _, tc := range []struct {
		name string
		body []byte
		want string
	}{
		{"NaN", api.AppendVectors(nil, [][]float64{{0.1, 0.2, 0.3}, {0.1, math.NaN(), 0.3}}), "vector 1 coordinate 1 is NaN"},
		{"+Inf", api.AppendVectors(nil, [][]float64{{0.1, 0.2, math.Inf(1)}}), "vector 0 coordinate 2 is +Inf"},
		{"-Inf", api.AppendVectors(nil, [][]float64{{math.Inf(-1), 0.2, 0.3}}), "vector 0 coordinate 0 is -Inf"},
		{"wrong dims", api.AppendVectors(nil, [][]float64{{0.1, 0.2}}), `vector 0 has 2 dims, collection "c" has 3`},
		{"short body", good[:len(good)-1], "31 bytes do not hold 1 vectors of 3 dims"},
		{"trailing bytes", append(append([]byte(nil), good...), 0), "33 bytes do not hold 1 vectors of 3 dims"},
		{"over the cap", api.AppendVectors(nil, big), "request body too large"},
	} {
		var e api.Error
		if code := postFrames(t, ts.URL+"/collections/c/vectors", tc.body, &e); code != http.StatusBadRequest || !strings.Contains(e.Error, tc.want) {
			t.Errorf("%s: status %d %q, want 400 naming %q", tc.name, code, e.Error, tc.want)
		}
		if n := length(); n != 0 {
			t.Fatalf("%s: len %d after a refused ingest, want 0", tc.name, n)
		}
	}
	var out api.IngestResponse
	if code := postFrames(t, ts.URL+"/collections/c/vectors", good, &out); code != http.StatusOK || out.FirstID != 0 || out.Count != 1 {
		t.Fatalf("good frames: status %d %+v", code, out)
	}
}

// postFrames posts a float64-frames body and decodes the JSON answer into
// out, returning the status code.
func postFrames(t *testing.T, url string, body []byte, out any) int {
	t.Helper()
	resp, err := http.Post(url, api.FramesType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("POST %s: bad response: %v", url, err)
	}
	return resp.StatusCode
}

// TestPersistenceAcrossRestart checks that a shut-down server's data —
// vectors and tombstones — comes back when a new server opens the same
// directory, and answers as before.
func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	vectors := dataset.CorelLike(300, 12, 9)

	s1, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	doJSON(t, http.MethodPut, ts1.URL+"/collections/c", api.CreateRequest{Dims: 12, SegmentSize: 64}, nil)
	ingestBatch(t, ts1.URL, "c", vectors)
	doJSON(t, http.MethodDelete, ts1.URL+"/collections/c/vectors/5", nil, nil)
	var before api.QueryResponse
	doJSON(t, http.MethodPost, ts1.URL+"/collections/c/query",
		api.QuerySpec{Query: vectors[10], K: 8}, &before)
	ts1.Close()
	if err := s1.Close(); err != nil { // flushes the dirty collection
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Config{Dir: dir})
	var st bond.CollectionStats
	doJSON(t, http.MethodGet, ts2.URL+"/collections/c", nil, &st)
	if st.Len != 300 || st.Live != 299 {
		t.Fatalf("restart lost data: %+v", st)
	}
	var after api.QueryResponse
	doJSON(t, http.MethodPost, ts2.URL+"/collections/c/query",
		api.QuerySpec{Query: vectors[10], K: 8}, &after)
	for i := range before.Results {
		if before.Results[i] != after.Results[i] {
			t.Fatalf("rank %d: before %+v != after %+v", i, before.Results[i], after.Results[i])
		}
	}
	_ = s2
}

// TestMaintenanceCompacts drives one maintenance cycle over a heavily
// tombstoned collection and checks compaction, persistence, and the
// stats counters.
func TestMaintenanceCompacts(t *testing.T) {
	// WALMaxBytes: 1 makes any non-empty WAL eligible, so the cycle also
	// demonstrates checkpoint-and-truncate instead of whole-store
	// snapshotting.
	// ReclusterSpread: -1 keeps the recluster phase out of this cycle so
	// the compaction/checkpoint counts stay exact (reclustering has its
	// own test below).
	s, ts := newTestServer(t, Config{CompactRatio: 0.2, WALMaxBytes: 1, ReclusterSpread: -1})
	vectors := dataset.CorelLike(200, 8, 13)
	doJSON(t, http.MethodPut, ts.URL+"/collections/c", api.CreateRequest{Dims: 8, SegmentSize: 50}, nil)
	ingestBatch(t, ts.URL, "c", vectors)
	for id := 0; id < 100; id++ {
		if code := doJSON(t, http.MethodDelete,
			fmt.Sprintf("%s/collections/c/vectors/%d", ts.URL, id), nil, nil); code != http.StatusNoContent {
			t.Fatalf("delete %d: status %d", id, code)
		}
	}

	var st bond.CollectionStats
	doJSON(t, http.MethodGet, ts.URL+"/collections/c", nil, &st)
	if st.TombstoneRatio != 0.5 {
		t.Fatalf("tombstone ratio %v, want 0.5", st.TombstoneRatio)
	}

	compacted, reclustered, checkpointed, err := s.RunMaintenance()
	if err != nil {
		t.Fatal(err)
	}
	if compacted != 1 || reclustered != 0 || checkpointed != 1 {
		t.Fatalf("maintenance: compacted %d reclustered %d checkpointed %d", compacted, reclustered, checkpointed)
	}
	doJSON(t, http.MethodGet, ts.URL+"/collections/c", nil, &st)
	if st.Len != 100 || st.TombstoneRatio != 0 {
		t.Fatalf("after compaction: %+v", st)
	}
	if st.Durability == nil || st.Durability.WALRecords != 0 || st.Durability.Checkpoints != 1 {
		t.Fatalf("checkpoint did not truncate the WAL: %+v", st.Durability)
	}

	var sst serverStats
	doJSON(t, http.MethodGet, ts.URL+"/stats", nil, &sst)
	if sst.Compactions != 1 || sst.Checkpoints != 1 || sst.MaintenanceRuns != 1 {
		t.Fatalf("server stats: %+v", sst)
	}
	if _, ok := sst.Collections["c"]; !ok {
		t.Fatalf("server stats missing collection: %+v", sst.Collections)
	}
}

// shuffledClustered generates planted-cluster vectors whose ingest order
// interleaves every cluster — the layout the recluster maintenance
// phase exists to fix.
func shuffledClustered(n, dims int, seed int64) [][]float64 {
	return dataset.Clustered(dataset.ClusteredConfig{
		N: n, Dims: dims, Clusters: 4, Sigma: 0.02, Seed: seed,
	})
}

// TestMaintenanceReclusters drives the recluster phase: a shuffled
// ingest order trips the spread heuristic, one cycle rewrites the
// collection into cluster-contiguous segments and checkpoints it, and
// the next cycle correctly leaves the tight layout alone.
func TestMaintenanceReclusters(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	doJSON(t, http.MethodPut, ts.URL+"/collections/c", api.CreateRequest{Dims: 4, SegmentSize: 25}, nil)
	ingestBatch(t, ts.URL, "c", shuffledClustered(120, 4, 31))

	var st bond.CollectionStats
	doJSON(t, http.MethodGet, ts.URL+"/collections/c", nil, &st)
	if !st.SpreadMeasured || st.SealedSpread < 0.6 {
		t.Fatalf("shuffled ingest spread %v (measured %v), want loose", st.SealedSpread, st.SpreadMeasured)
	}
	var before api.QueryResponse
	q := api.QuerySpec{Query: shuffledClustered(1, 4, 99)[0], K: 5}
	doJSON(t, http.MethodPost, ts.URL+"/collections/c/query", q, &before)

	_, reclustered, _, err := s.RunMaintenance()
	if err != nil {
		t.Fatal(err)
	}
	if reclustered != 1 {
		t.Fatalf("reclustered %d, want 1", reclustered)
	}
	doJSON(t, http.MethodGet, ts.URL+"/collections/c", nil, &st)
	if st.Reclusters != 1 || !st.SpreadMeasured || st.SealedSpread >= 0.6 {
		t.Fatalf("post-recluster gauges: reclusters %d spread %v", st.Reclusters, st.SealedSpread)
	}
	// The rewrite was checkpointed in the same cycle: recovery replays no
	// k-means.
	if st.Durability == nil || st.Durability.WALRecords != 0 {
		t.Fatalf("recluster not checkpointed: %+v", st.Durability)
	}
	// Ids were remapped but the served ranking is the same data: scores
	// must match rank for rank, byte for byte.
	var after api.QueryResponse
	doJSON(t, http.MethodPost, ts.URL+"/collections/c/query", q, &after)
	if len(after.Results) != len(before.Results) {
		t.Fatalf("result count changed: %d vs %d", len(after.Results), len(before.Results))
	}
	for i := range before.Results {
		if after.Results[i].Score != before.Results[i].Score {
			t.Fatalf("rank %d score changed: %v vs %v", i, after.Results[i].Score, before.Results[i].Score)
		}
	}

	// A second cycle sees a tight, unchanged layout and does nothing.
	if _, again, _, err := s.RunMaintenance(); err != nil || again != 0 {
		t.Fatalf("second cycle reclustered %d err %v, want idle", again, err)
	}
	var sst serverStats
	doJSON(t, http.MethodGet, ts.URL+"/stats", nil, &sst)
	if sst.Reclusters != 1 {
		t.Fatalf("server recluster counter %d, want 1", sst.Reclusters)
	}
}

// TestReclusterEndpoint exercises the manual trigger: unconditional,
// parameterized by optional k/seed, checkpointed before the 2xx.
func TestReclusterEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{ReclusterSpread: -1}) // maintenance off; manual only
	doJSON(t, http.MethodPut, ts.URL+"/collections/c", api.CreateRequest{Dims: 4, SegmentSize: 25}, nil)
	ingestBatch(t, ts.URL, "c", shuffledClustered(120, 4, 57))

	var out api.ReclusterResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/collections/c/recluster", nil, &out); code != http.StatusOK {
		t.Fatalf("recluster: status %d", code)
	}
	if !out.Reclustered || out.SpreadAfter >= out.SpreadBefore {
		t.Fatalf("manual recluster: %+v", out)
	}
	// Manual triggers are unconditional: a second call rewrites again (and
	// succeeds) even though the layout is already tight.
	if code := doJSON(t, http.MethodPost, ts.URL+"/collections/c/recluster",
		api.ReclusterRequest{K: 3, Seed: ptrInt64(42)}, &out); code != http.StatusOK || !out.Reclustered {
		t.Fatalf("second recluster: status %d %+v", code, out)
	}
	var st bond.CollectionStats
	doJSON(t, http.MethodGet, ts.URL+"/collections/c", nil, &st)
	if st.Reclusters != 2 || st.Durability == nil || st.Durability.WALRecords != 0 {
		t.Fatalf("endpoint bookkeeping: %+v", st)
	}
	// An empty collection has nothing to rewrite; the endpoint reports so.
	doJSON(t, http.MethodPut, ts.URL+"/collections/empty", api.CreateRequest{Dims: 4}, nil)
	if code := doJSON(t, http.MethodPost, ts.URL+"/collections/empty/recluster", nil, &out); code != http.StatusOK || out.Reclustered {
		t.Fatalf("empty recluster: status %d %+v", code, out)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/collections/missing/recluster", nil, nil); code != http.StatusNotFound {
		t.Fatalf("missing collection: status %d", code)
	}
}

func ptrInt64(v int64) *int64 { return &v }

// TestStatsExposeSynopses checks the per-segment synopsis summaries the
// stats endpoint serves.
func TestStatsExposeSynopses(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	vectors := dataset.CorelLike(120, 6, 21)
	doJSON(t, http.MethodPut, ts.URL+"/collections/c", api.CreateRequest{Dims: 6, SegmentSize: 50}, nil)
	ingestBatch(t, ts.URL, "c", vectors)

	var st bond.CollectionStats
	doJSON(t, http.MethodGet, ts.URL+"/collections/c", nil, &st)
	if st.Segments != 3 { // 50 + 50 + active 20
		t.Fatalf("segments %d, want 3: %+v", st.Segments, st.SegmentStats)
	}
	for i, seg := range st.SegmentStats {
		wantSealed := i < 2
		if seg.Sealed != wantSealed {
			t.Fatalf("segment %d sealed=%v, want %v", i, seg.Sealed, wantSealed)
		}
		if seg.Synopsis == nil {
			t.Fatalf("segment %d missing synopsis", i)
		}
		if seg.Synopsis.MassLo > seg.Synopsis.MassHi || seg.Synopsis.MinVal > seg.Synopsis.MaxVal {
			t.Fatalf("segment %d inconsistent synopsis: %+v", i, seg.Synopsis)
		}
	}
}

// TestAdmissionRejectsWhenSaturated pins the bounded in-flight contract:
// with every slot held and the client already gone, a query is turned
// away with 503 instead of queueing forever.
func TestAdmissionRejectsWhenSaturated(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1})
	doJSON(t, http.MethodPut, ts.URL+"/collections/c", api.CreateRequest{Dims: 2}, nil)
	ingestBatch(t, ts.URL, "c", [][]float64{{0.1, 0.2}, {0.3, 0.4}})

	s.sem <- struct{}{} // hold the only slot
	defer func() { <-s.sem }()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the waiting client has already given up
	body, _ := json.Marshal(api.QuerySpec{Query: []float64{0.1, 0.2}, K: 1})
	req := httptest.NewRequest(http.MethodPost, "/collections/c/query",
		bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated query: status %d, want 503", rec.Code)
	}
	// The rejection must tell clients (and the coordinator's retry
	// envelope) how to behave: a Retry-After header plus the structured
	// error body with a stable code and a millisecond backoff hint.
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	var e api.Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("503 body %q is not structured JSON: %v", rec.Body.Bytes(), err)
	}
	if e.Code != "overloaded" || e.RetryAfterMs != 1000 || e.Error == "" {
		t.Fatalf("503 body = %+v, want code overloaded with retry_after_ms 1000", e)
	}
}
