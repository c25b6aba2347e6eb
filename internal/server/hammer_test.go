package server

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"bond/internal/api"
	"bond/internal/dataset"
)

// TestConcurrentIngestQueryHammer is the acceptance-criteria stress run:
// writers batch-ingesting and tombstoning, readers querying (single,
// batch, and explain) and polling stats, and maintenance cycles
// compacting and snapshotting — all at once against one httptest server,
// meaningful under -race. Responses are only required to be well-formed
// and well-statused; exactness under a quiescent collection is pinned by
// TestEndToEndByteIdentical.
func TestConcurrentIngestQueryHammer(t *testing.T) {
	const (
		dims    = 12
		writers = 3
		readers = 4
		rounds  = 25
	)
	s, ts := newTestServer(t, Config{SegmentSize: 64, CompactRatio: 0.1})
	seed := dataset.CorelLike(200, dims, 31)
	doJSON(t, http.MethodPut, ts.URL+"/collections/h", api.CreateRequest{Dims: dims, SegmentSize: 64}, nil)
	ingestBatch(t, ts.URL, "h", seed)

	var (
		wg       sync.WaitGroup
		failures atomic.Int64
	)
	fail := func(format string, args ...any) {
		failures.Add(1)
		t.Errorf(format, args...)
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := dataset.CorelLike(20, dims, int64(100+w))
			for i := 0; i < rounds; i++ {
				var ing api.IngestResponse
				if code := doJSON(t, http.MethodPost, ts.URL+"/collections/h/vectors",
					api.IngestRequest{Vectors: batch}, &ing); code != http.StatusOK {
					fail("writer %d round %d: ingest status %d", w, i, code)
					return
				}
				// Tombstone a vector we just wrote; compaction may remap ids
				// concurrently, so 404 (already compacted away) is legal too.
				url := fmt.Sprintf("%s/collections/h/vectors/%d", ts.URL, ing.FirstID)
				if code := doJSON(t, http.MethodDelete, url, nil, nil); code != http.StatusNoContent && code != http.StatusNotFound {
					fail("writer %d round %d: delete status %d", w, i, code)
					return
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			q := seed[r*7]
			for i := 0; i < rounds; i++ {
				switch i % 4 {
				case 0:
					var resp api.QueryResponse
					if code := doJSON(t, http.MethodPost, ts.URL+"/collections/h/query",
						api.QuerySpec{Query: q, K: 5}, &resp); code != http.StatusOK {
						fail("reader %d round %d: query status %d", r, i, code)
						return
					}
					if len(resp.Results) != 5 {
						fail("reader %d round %d: %d results", r, i, len(resp.Results))
						return
					}
				case 1:
					var resp api.BatchResponse
					if code := doJSON(t, http.MethodPost, ts.URL+"/collections/h/query/batch",
						api.BatchRequest{Queries: []api.QuerySpec{
							{Query: q, K: 3, Criterion: "Eq"},
							{Query: q, K: 8, Strategy: "bond"},
						}}, &resp); code != http.StatusOK {
						fail("reader %d round %d: batch status %d", r, i, code)
						return
					}
				case 2:
					var resp api.ExplainResponse
					if code := doJSON(t, http.MethodPost, ts.URL+"/collections/h/explain",
						api.QuerySpec{Query: q, K: 5}, &resp); code != http.StatusOK {
						fail("reader %d round %d: explain status %d", r, i, code)
						return
					}
					if resp.Plan == "" {
						fail("reader %d round %d: empty plan", r, i)
						return
					}
				case 3:
					var st serverStats
					if code := doJSON(t, http.MethodGet, ts.URL+"/stats", nil, &st); code != http.StatusOK {
						fail("reader %d round %d: stats status %d", r, i, code)
						return
					}
				}
			}
		}(r)
	}

	// Maintenance races the traffic: compactions remap ids mid-flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds/2; i++ {
			if _, _, _, err := s.RunMaintenance(); err != nil {
				fail("maintenance %d: %v", i, err)
				return
			}
		}
	}()

	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d hammer failures", failures.Load())
	}

	// The dust settled: the collection still answers exactly and flushes.
	var resp api.QueryResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/collections/h/query",
		api.QuerySpec{Query: seed[0], K: 10}, &resp); code != http.StatusOK || len(resp.Results) != 10 {
		t.Fatalf("post-hammer query: status %d, %d results", code, len(resp.Results))
	}
	if _, _, _, err := s.RunMaintenance(); err != nil {
		t.Fatalf("post-hammer maintenance: %v", err)
	}
}
