package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bond/internal/api"
)

// Reasons a conformance row's coordinator body may differ from the single
// node's.
const (
	summedStats = "work stats are summed across shards"
	noLength    = "the single node's [0,len) range needs the collection's length, an extra fan-out"
)

// TestCoordinatorWireConformance sends the same requests — create,
// ingest, query, batch and id routes, valid and malformed, and a missing
// collection on the data routes — to a single node and to a 2-shard
// coordinator holding the same three vectors. Each row pins the single
// node's status and body literally; the coordinator must answer the same
// status on every row, and the same body unless the row names why not
// (and then pins the coordinator's body too).
//
// Left out, because the coordinator answers them differently by design:
// explain and recluster (501 on the coordinator) — but for a GET explain
// naming a parameter the route does not read, which both refuse before
// admission —, collection stats (the coordinator's are an aggregate), and
// a missing collection combined with a malformed body or id (a single node
// reports the collection first; the coordinator cannot know it is missing
// without a fan-out).
func TestCoordinatorWireConformance(t *testing.T) {
	cl := newTestCluster(t, 2, fastTestConfig())
	oracle := newOracleServer(t)
	for _, base := range []string{oracle.URL, cl.front.URL} {
		for _, rq := range [][2]string{
			{"PUT /collections/c", `{"dims":2}`},
			{"POST /collections/c/vectors", `{"vectors":[[1,0],[0,1],[0.5,0.5]]}`},
		} {
			if status, body := send(t, base, rq[0], rq[1]); status/100 != 2 {
				t.Fatalf("%s: %s: status %d: %s", base, rq[0], status, body)
			}
		}
	}

	const (
		badName     = `{"error":"server: invalid collection name (want [a-zA-Z0-9][a-zA-Z0-9_-]{0,63})"}`
		notFound    = `{"error":"server: collection not found"}`
		q10         = `{"query":[1,0],"k":2}`
		q10Results  = `{"results":[{"id":0,"score":1},{"id":2,"score":0.5}],`
		nodeStats   = `"stats":{"values_scanned":6,"final_candidates":3,"segments_searched":1,"segments_skipped":0}}`
		coordStats  = `"stats":{"values_scanned":6,"final_candidates":3,"segments_searched":2,"segments_skipped":0}}`
		by1Results  = `{"results":[{"id":1,"score":1},{"id":2,"score":0.5}],`
		missingBody = `{"vector":[1,0]}`
	)
	for _, row := range []struct {
		req, body string
		status    int
		want      string // the single node's body, literally
		differ    string // why the coordinator's body may differ ("" = it may not)
		coord     string // the coordinator's body, when differ is set
	}{
		{"GET /collections", "", 200, `{"collections":["c"]}`, "", ""},
		{"PUT /collections/c", `{"dims":2}`, 200, `{"name":"c","dims":2,"created":false}`, "", ""},
		{"PUT /collections/c", `{"dims":3}`, 409, `{"error":"server: collection exists with different shape: \"c\" has 2 dims, requested 3"}`, "", ""},
		{"PUT /collections/c", `{"dims":0}`, 400, `{"error":"server: invalid collection shape: dims must be \u003e= 1, got 0"}`, "", ""},
		{"PUT /collections/x%3Fy", `{"dims":2}`, 400, badName, "", ""},
		{"PUT /collections/a%2Fb", `{"dims":2}`, 400, badName, "", ""},
		{"PUT /collections/e", `{bad`, 400, `{"error":"bad request body: invalid character 'b' looking for beginning of object key string"}`, "", ""},
		{"GET /collections/missing", "", 404, notFound, "", ""},
		{"GET /collections/bad..name", "", 400, badName, "", ""},
		{"DELETE /collections/missing", "", 404, notFound, "", ""},

		{"POST /collections/c/vectors", `{}`, 400, `{"error":"vector or vectors is required"}`, "", ""},
		{"POST /collections/c/vectors", `{"vector":[1,0],"vectors":[[1,0]]}`, 400, `{"error":"set either vector or vectors, not both"}`, "", ""},
		{"POST /collections/c/vectors", `{"vektor":[1,0]}`, 400, `{"error":"bad request body: json: unknown field \"vektor\""}`, "", ""},
		{"POST /collections/c/vectors", `{"vector":[1,2,3]}`, 400, `{"error":"vector 0 has 3 dims, collection \"c\" has 2"}`, "", ""},
		{"POST /collections/missing/vectors", missingBody, 404, notFound, "", ""},
		{"POST /collections/bad..name/vectors", missingBody, 400, badName, "", ""},

		{"GET /collections/c/vectors/0", "", 200, `{"id":0,"vector":[1,0]}`, "", ""},
		{"GET /collections/c/vectors/2", "", 200, `{"id":2,"vector":[0.5,0.5]}`, "", ""},
		{"GET /collections/c/vectors/abc", "", 400, `{"error":"bad vector id: strconv.Atoi: parsing \"abc\": invalid syntax"}`, "", ""},
		{"GET /collections/c/vectors/99", "", 404, `{"error":"id 99 outside collection [0,3)"}`, noLength, `{"error":"id 99 outside collection"}`},
		{"GET /collections/c/vectors/-1", "", 404, `{"error":"id -1 outside collection [0,3)"}`, noLength, `{"error":"id -1 outside collection"}`},
		{"GET /collections/missing/vectors/0", "", 404, notFound, "", ""},
		{"DELETE /collections/c/vectors/abc", "", 400, `{"error":"bad vector id: strconv.Atoi: parsing \"abc\": invalid syntax"}`, "", ""},
		{"DELETE /collections/c/vectors/99", "", 404, `{"error":"id 99 outside collection [0,3)"}`, noLength, `{"error":"id 99 outside collection"}`},
		{"DELETE /collections/missing/vectors/0", "", 404, notFound, "", ""},

		{"POST /collections/c/query", q10, 200, q10Results + nodeStats, summedStats, q10Results + coordStats},
		{"POST /collections/c/query", `{"query":[1,0],"k":2,"policy":"partial"}`, 200, q10Results + nodeStats, summedStats, q10Results + coordStats},
		{"POST /collections/c/query", `{"id":1,"k":2}`, 200, by1Results + nodeStats, summedStats, by1Results + coordStats},
		{"POST /collections/c/query", `{"id":99,"k":2}`, 400, `{"error":"id 99 outside collection [0,3)"}`, noLength, `{"error":"id 99 outside collection"}`},
		{"POST /collections/c/query", `{"query":[1,0],"id":1,"k":2}`, 400, `{"error":"set either query or id, not both"}`, "", ""},
		{"POST /collections/c/query", `{"k":2}`, 400, `{"error":"query vector (or id) is required"}`, "", ""},
		{"POST /collections/c/query", `{"query":[1,0],"k":0}`, 400, `{"error":"core: K must be \u003e= 1"}`, "", ""},
		{"POST /collections/c/query", `{"query":[1,0],"k":2,"strategy":"zz"}`, 400, `{"error":"plan: unknown strategy \"zz\" (want auto, bond, compressed, vafile, or exact)"}`, "", ""},
		{"POST /collections/c/query", `{"query":[1,0],"k":2,"strategy":"seqscan"}`, 400, `{"error":"plan: unknown strategy \"seqscan\" (want auto, bond, compressed, vafile, or exact)"}`, "", ""},
		{"POST /collections/c/query", `{"query":[1,0],"k":2,"order":"zz"}`, 400, `{"error":"bond: unknown order \"zz\" (want desc, asc, random, or natural)"}`, "", ""},
		{"POST /collections/c/query", `{"query":[1,0],"k":2,"criterion":"zz"}`, 400, `{"error":"bond: unknown criterion \"zz\" (want Hq, Hh, Eq, or Ev)"}`, "", ""},
		{"POST /collections/c/query", `{"query":[1,0,3],"k":2}`, 400, `{"error":"core: query length must equal store dimensionality: query 3, store 2"}`, "", ""},
		{"POST /collections/c/query", `{"query":[-1e200,0.5],"k":2,"criterion":"eq"}`, 400, `{"error":"core: query would make a score non-finite: the Eq score of a vector in [0, 1] can overflow for this query"}`, "", ""},
		{"POST /collections/c/query", `{"query":[1,0],"k":2,"bogus":1}`, 400, `{"error":"bad request body: json: unknown field \"bogus\""}`, "", ""},
		{"POST /collections/c/query", `{"query":[1,0],"k":2,"parallel":4}`, 400, `{"error":"bad request body: json: unknown field \"parallel\""}`, "", ""},
		{"POST /collections/missing/query", q10, 404, notFound, "", ""},
		{"POST /collections/bad..name/query", q10, 400, badName, "", ""},

		{"POST /collections/c/query/batch", `{"queries":[]}`, 400, `{"error":"queries is required"}`, "", ""},
		{"POST /collections/c/query/batch", `{"queries":[` + q10 + `,{"id":1,"k":2}]}`, 200,
			`{"results":[` + q10Results + nodeStats + `,` + by1Results + nodeStats + `]}`, summedStats,
			`{"results":[` + q10Results + coordStats + `,` + by1Results + coordStats + `]}`},
		{"POST /collections/c/query/batch", `{"queries":[{"query":[1,0],"k":2,"criterion":"zz"},{"k":1}]}`, 400, `{"error":"query 0: bond: unknown criterion \"zz\" (want Hq, Hh, Eq, or Ev)"}`, "", ""},
		{"POST /collections/c/query/batch", `{"queries":[` + q10 + `,{"k":1}]}`, 400, `{"error":"query 1: query vector (or id) is required"}`, "", ""},
		{"POST /collections/c/query/batch", `{"queries":[{"id":99,"k":1}]}`, 400, `{"error":"query 0: id 99 outside collection [0,3)"}`, noLength, `{"error":"query 0: id 99 outside collection"}`},
		{"POST /collections/c/query/batch", `{"queries":[{"query":[1,0,1],"k":1}]}`, 400, `{"error":"bond: batch query 0: core: query length must equal store dimensionality: query 3, store 2"}`, "", ""},
		{"POST /collections/c/query/batch", `{"queries":[{"query":[1,0],"k":2,"parallel":4}]}`, 400, `{"error":"bad request body: json: unknown field \"parallel\""}`, "", ""},
		{"POST /collections/missing/query/batch", `{"queries":[` + q10 + `]}`, 404, notFound, "", ""},

		{"GET /collections/c/explain?id=0&parallel=4", "", 400, `{"error":"unknown parameter \"parallel\""}`, "", ""},
		{"GET /collections/c/explain?id=0&stratgy=exact&k=2", "", 400, `{"error":"unknown parameter \"stratgy\""}`, "", ""},
		{"GET /collections/missing/explain?k=2&parallel=4", "", 400, `{"error":"unknown parameter \"parallel\""}`, "", ""},
		{"GET /collections/c/explain?id=0&k=%zz", "", 400, `{"error":"bad parameter \"k\": invalid URL escape \"%zz\""}`, "", ""},
		{"GET /collections/c/explain?id=0&k=1&k=2", "", 400, `{"error":"repeated parameter \"k\""}`, "", ""},

		// A ragged batch is refused whole, wherever the bad vector sits,
		// and leaves nothing behind: the next ingest takes id 3.
		{"POST /collections/c/vectors", `{"vectors":[[1,0,2],[0,1]]}`, 400, `{"error":"vector 0 has 3 dims, collection \"c\" has 2"}`, "", ""},
		{"POST /collections/c/vectors", `{"vectors":[[1,0],[0,1,2]]}`, 400, `{"error":"vector 1 has 3 dims, collection \"c\" has 2"}`, "", ""},
		{"POST /collections/c/vectors", `{"vectors":[[0.25,0.75]]}`, 200, `{"first_id":3,"count":1}`, "", ""},
		{"DELETE /collections/c/vectors/1", "", 204, ``, "", ""},
		{"DELETE /collections/c", "", 204, ``, "", ""},
		{"DELETE /collections/c", "", 404, notFound, "", ""},
		{"GET /collections", "", 200, `{"collections":[]}`, "", ""},
	} {
		status, body := send(t, oracle.URL, row.req, row.body)
		if status != row.status || body != row.want {
			t.Errorf("single node %s %s: %d %#q, want %d %#q", row.req, row.body, status, body, row.status, row.want)
		}
		want := row.want
		if row.differ != "" {
			want = row.coord
		}
		status, body = send(t, cl.front.URL, row.req, row.body)
		if status != row.status || body != want {
			t.Errorf("coordinator %s %s: %d %#q, want %d %#q", row.req, row.body, status, body, row.status, want)
		}
	}
}

// send issues "METHOD /path" with a raw body and returns the status and
// the body without encoding/json's trailing newline.
func send(t *testing.T, base, req, body string) (int, string) {
	t.Helper()
	method, path, _ := strings.Cut(req, " ")
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	r, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(r)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, strings.TrimSuffix(string(raw), "\n")
}

// TestCoordinatorRaggedIngestCommitsNothing: a batch with one vector of
// the wrong dims is refused before any shard is called, whichever shard
// the bad vector would have gone to, so no shard commits its slice, the
// collection's length does not move, and the id layout stays intact for
// the next ingest. It used to land on the shards whose slices were good
// and fence every later ingest with 409 topology_drift.
func TestCoordinatorRaggedIngestCommitsNothing(t *testing.T) {
	cl := newTestCluster(t, 2, fastTestConfig())
	length := func() int {
		var st struct {
			Len int `json:"len"`
		}
		if status, raw := doJSON(t, http.MethodGet, cl.front.URL+"/collections/c", nil, &st); status != http.StatusOK {
			t.Fatalf("stats: status %d: %s", status, raw)
		}
		return st.Len
	}
	doJSON(t, http.MethodPut, cl.front.URL+"/collections/c", api.CreateRequest{Dims: 2}, nil)
	doJSON(t, http.MethodPost, cl.front.URL+"/collections/c/vectors", api.IngestRequest{Vectors: [][]float64{{1, 0}, {0, 1}}}, nil)
	for _, ragged := range [][][]float64{{{1, 0, 2}, {0, 1}}, {{1, 0}, {0, 1, 2}}} {
		var e api.Error
		if status, _ := doJSON(t, http.MethodPost, cl.front.URL+"/collections/c/vectors", api.IngestRequest{Vectors: ragged}, &e); status != http.StatusBadRequest || len(e.MissedShards) != 0 {
			t.Fatalf("ragged ingest %v: status %d %+v, want a plain 400", ragged, status, e)
		}
		if n := length(); n != 2 {
			t.Fatalf("ragged ingest %v: len %d, want 2", ragged, n)
		}
	}
	var out api.IngestResponse
	if status, raw := doJSON(t, http.MethodPost, cl.front.URL+"/collections/c/vectors", api.IngestRequest{Vectors: [][]float64{{0.5, 0.5}}}, &out); status != http.StatusOK || out.FirstID != 2 {
		t.Fatalf("ingest after ragged batches: status %d: %s", status, raw)
	}
	// The steady-state path asks the shards nothing beyond the ingest.
	before := cl.co.fanouts.Load()
	doJSON(t, http.MethodPost, cl.front.URL+"/collections/c/vectors", api.IngestRequest{Vectors: [][]float64{{0.5, 0.5}}}, nil)
	if n := cl.co.fanouts.Load() - before; n != 2 {
		t.Fatalf("a cached ingest made %d shard calls, want 2", n)
	}
}

// TestCoordinatorFramesRefusalsCommitNothing: a client's float64-frames
// ingest the coordinator cannot take whole — a non-finite coordinate, the
// wrong dims, a body short of or past what its header announces, a body
// over the cap — is a plain 400, no shard commits anything, and the next
// ingest takes the next id. The coordinator serves through its own
// handler set with a 256-byte cap (Handler's is the 64 MiB default).
func TestCoordinatorFramesRefusalsCommitNothing(t *testing.T) {
	cl := newTestCluster(t, 2, fastTestConfig())
	front := httptest.NewServer(api.NewMux(cl.co, 256, nil))
	t.Cleanup(front.Close)
	doJSON(t, http.MethodPut, front.URL+"/collections/c", api.CreateRequest{Dims: 3}, nil)
	doJSON(t, http.MethodPost, front.URL+"/collections/c/vectors", api.IngestRequest{Vectors: [][]float64{{1, 0, 0}, {0, 1, 0}}}, nil)
	length := func() int {
		var st struct {
			Len int `json:"len"`
		}
		if status, raw := doJSON(t, http.MethodGet, front.URL+"/collections/c", nil, &st); status != http.StatusOK {
			t.Fatalf("stats: status %d: %s", status, raw)
		}
		return st.Len
	}
	good := api.AppendVectors(nil, [][]float64{{0.1, 0.2, 0.3}})
	big := make([][]float64, 16)
	for i := range big {
		big[i] = []float64{0.1, 0.2, 0.3}
	}
	before := cl.co.fanouts.Load()
	for _, tc := range []struct {
		name string
		body []byte
		want string
	}{
		{"NaN", api.AppendVectors(nil, [][]float64{{0.1, 0.2, 0.3}, {0.1, math.NaN(), 0.3}}), "vector 1 coordinate 1 is NaN"},
		{"+Inf", api.AppendVectors(nil, [][]float64{{0.1, 0.2, math.Inf(1)}}), "vector 0 coordinate 2 is +Inf"},
		{"-Inf", api.AppendVectors(nil, [][]float64{{math.Inf(-1), 0.2, 0.3}}), "vector 0 coordinate 0 is -Inf"},
		{"wrong dims", api.AppendVectors(nil, [][]float64{{0.1, 0.2}, {0.3, 0.4}}), `vector 0 has 2 dims, collection "c" has 3`},
		{"short body", good[:len(good)-1], "31 bytes do not hold 1 vectors of 3 dims"},
		{"trailing bytes", append(append([]byte(nil), good...), 0), "33 bytes do not hold 1 vectors of 3 dims"},
		{"over the cap", api.AppendVectors(nil, big), "request body too large"},
	} {
		resp, err := http.Post(front.URL+"/collections/c/vectors", api.FramesType, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e api.Error
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, tc.want) || len(e.MissedShards) != 0 {
			t.Errorf("%s: status %d %+v (%v), want a plain 400 naming %q", tc.name, resp.StatusCode, e, err, tc.want)
		}
		if n := length(); n != 2 {
			t.Fatalf("%s: len %d after a refused ingest, want 2", tc.name, n)
		}
	}
	// Each length check is one fan-out; no refused ingest reached a shard.
	if n := cl.co.fanouts.Load() - before; n != 7*2 {
		t.Fatalf("refused ingests made %d shard calls beyond the length checks", n-7*2)
	}
	resp, err := http.Post(front.URL+"/collections/c/vectors", api.FramesType, bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	var out api.IngestResponse
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || out.FirstID != 2 {
		t.Fatalf("good frames after refusals: status %d %+v (%v)", resp.StatusCode, out, err)
	}
}

// TestCoordinatorShardHopFrames: vectors of random finite bits ingested
// through the coordinator reach their shards as float64 frames and read
// back bit-identical, through the coordinator and straight from the
// owning shard; queries and batches still cross as JSON. The proxies in
// front of the shards see every call, so a silent fallback to JSON fails.
func TestCoordinatorShardHopFrames(t *testing.T) {
	cl := newTestCluster(t, 2, fastTestConfig())
	const dims = 8
	rng := rand.New(rand.NewSource(1))
	edges := []float64{math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.MaxFloat64, math.MaxFloat64,
		math.Float64frombits(0x000f_ffff_ffff_ffff), 1, 0.1, -2.5e-300}
	vectors := make([][]float64, 13)
	for i := range vectors {
		vectors[i] = make([]float64, dims)
		for d := range vectors[i] {
			b := rng.Uint64()
			if b&(0x7ff<<52) == 0x7ff<<52 { // NaN or ±Inf: clear the exponent's top bit
				b &^= 1 << 62
			}
			vectors[i][d] = math.Float64frombits(b)
		}
	}
	copy(vectors[5], edges)
	doJSON(t, http.MethodPut, cl.front.URL+"/collections/c", api.CreateRequest{Dims: dims}, nil)
	for _, batch := range [][][]float64{vectors[:2], vectors[2:6], vectors[6:]} {
		if status, raw := doJSON(t, http.MethodPost, cl.front.URL+"/collections/c/vectors", api.IngestRequest{Vectors: batch}, nil); status != http.StatusOK {
			t.Fatalf("ingest: status %d: %s", status, raw)
		}
	}
	for g, want := range vectors {
		owner, local := cl.co.topo.Owner(g), cl.co.topo.Local(g)
		for _, url := range []string{
			fmt.Sprintf("%s/collections/c/vectors/%d", cl.front.URL, g),
			fmt.Sprintf("%s/collections/c/vectors/%d", cl.raw[owner].URL, local),
		} {
			var got api.VectorResponse
			if status, raw := doJSON(t, http.MethodGet, url, nil, &got); status != http.StatusOK {
				t.Fatalf("GET %s: status %d: %s", url, status, raw)
			}
			for d := range want {
				if len(got.Vector) != dims || math.Float64bits(got.Vector[d]) != math.Float64bits(want[d]) {
					t.Fatalf("GET %s: %v, ingested %v", url, got.Vector, want)
				}
			}
		}
	}

	// No criterion scores vectors this far apart without overflow, so the
	// queries go to a collection of unit-box vectors.
	doJSON(t, http.MethodPut, cl.front.URL+"/collections/d", api.CreateRequest{Dims: dims}, nil)
	doJSON(t, http.MethodPost, cl.front.URL+"/collections/d/vectors", api.IngestRequest{Vectors: deterministicVectors(6, dims)}, nil)
	q := api.QuerySpec{Query: make([]float64, dims), K: 3, Criterion: "ev"}
	if status, raw := doJSON(t, http.MethodPost, cl.front.URL+"/collections/d/query", q, nil); status != http.StatusOK {
		t.Fatalf("query: status %d: %s", status, raw)
	}
	if status, raw := doJSON(t, http.MethodPost, cl.front.URL+"/collections/d/query/batch", api.BatchRequest{Queries: []api.QuerySpec{q, q}}, nil); status != http.StatusOK {
		t.Fatalf("batch: status %d: %s", status, raw)
	}
	for i, p := range cl.proxies {
		for _, c := range []struct {
			path, ctype string
			want        int
		}{
			{"/collections/c/vectors", api.FramesType, 3},
			{"/collections/c/vectors", api.JSONType, 0},
			{"/collections/d/vectors", api.FramesType, 1},
			{"/collections/d/query", api.JSONType, 1},
			{"/collections/d/query/batch", api.JSONType, 1},
		} {
			if n := p.sent(http.MethodPost, c.path, c.ctype); n != c.want {
				t.Errorf("shard %d: %d POST %s as %s, want %d", i, n, c.path, c.ctype, c.want)
			}
		}
	}
}
