package server

import (
	"errors"
	"net/http"
	"testing"
	"time"

	"bond/internal/api"
	"bond/internal/iofs"
)

// failingCreateFS delegates to a real filesystem but refuses to create
// files — a full or read-only data disk, as the readiness probe sees it.
type failingCreateFS struct {
	iofs.FS
	err error
}

func (f failingCreateFS) Create(string) (iofs.File, error) { return nil, f.err }

// TestReadyzDistinguishesLiveness pins the /healthz vs /readyz split: a
// process can be alive (healthz 200) while unable to acknowledge writes
// (readyz 503 with a structured cause), and readiness exercises both the
// data-dir probe and every loaded collection's WAL.
func TestReadyzDistinguishesLiveness(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	doJSON(t, http.MethodPut, ts.URL+"/collections/c", api.CreateRequest{Dims: 2}, nil)
	ingestBatch(t, ts.URL, "c", [][]float64{{0.1, 0.2}, {0.3, 0.4}})

	// Healthy: both endpoints answer 200, and readiness really did probe
	// (a loaded collection with a live WAL is part of the check).
	if status := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, nil); status != http.StatusOK {
		t.Fatalf("healthz: status %d", status)
	}
	var ready struct {
		Status string `json:"status"`
	}
	if status := doJSON(t, http.MethodGet, ts.URL+"/readyz", nil, &ready); status != http.StatusOK || ready.Status != "ready" {
		t.Fatalf("readyz: status %d body %+v", status, ready)
	}

	// Break the data dir through the probe seam: readiness must flip to
	// 503 while liveness stays 200.
	diskFull := errors.New("no space left on device")
	s.cat.probeFS = failingCreateFS{FS: iofs.OS{}, err: diskFull}
	var e api.Error
	if status := doJSON(t, http.MethodGet, ts.URL+"/readyz", nil, &e); status != http.StatusServiceUnavailable {
		t.Fatalf("readyz with a broken data dir: status %d, want 503", status)
	}
	if e.Code != "not_ready" || !contains(e.Error, "not writable") {
		t.Fatalf("readyz error = %+v", e)
	}
	if status := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, nil); status != http.StatusOK {
		t.Fatal("healthz must stay 200 while readiness fails")
	}

	// And back: readiness recovers with the disk.
	s.cat.probeFS = iofs.OS{}
	if status := doJSON(t, http.MethodGet, ts.URL+"/readyz", nil, nil); status != http.StatusOK {
		t.Fatal("readyz did not recover")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestQueryDeadlineReturnsPromptly is the single-node half of the
// deadline-propagation e2e: a query whose timeout_ms expires mid-scan
// must come back promptly — degraded to the candidates scanned so far
// (truncated), never hung. The coordinator half lives in internal/shard.
func TestQueryDeadlineReturnsPromptly(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doJSON(t, http.MethodPut, ts.URL+"/collections/c", api.CreateRequest{Dims: 16}, nil)
	vectors := make([][]float64, 4000)
	for i := range vectors {
		v := make([]float64, 16)
		for d := range v {
			v[d] = float64((i*31+d*7)%100) / 100
		}
		vectors[i] = v
	}
	ingestBatch(t, ts.URL, "c", vectors)

	q := make([]float64, 16)
	for d := range q {
		q[d] = 0.5
	}
	start := time.Now()
	var resp api.QueryResponse
	status := doJSON(t, http.MethodPost, ts.URL+"/collections/c/query",
		api.QuerySpec{Query: q, K: 5, Strategy: "exact", TimeoutMs: 1}, &resp)
	elapsed := time.Since(start)
	if status != http.StatusOK {
		t.Fatalf("deadline query: status %d", status)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("1ms-deadline query took %v", elapsed)
	}
	if len(resp.Results) > 5 {
		t.Fatalf("k=5 query returned %d results", len(resp.Results))
	}
	// Whether the scan finished under the wire or was cut short is
	// machine-dependent; what must hold is promptness plus a marked
	// truncation whenever the answer is short.
	if len(resp.Results) < 5 && !resp.Truncated {
		t.Fatalf("short answer (%d of 5) without truncated flag", len(resp.Results))
	}
	t.Logf("deadline query: elapsed=%v truncated=%v results=%d", elapsed, resp.Truncated, len(resp.Results))
}
