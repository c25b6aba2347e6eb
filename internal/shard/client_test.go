package shard

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"bond/internal/api"
)

// fastEnvelope keeps unit-test retries cheap.
func fastEnvelope() Envelope {
	return Envelope{MaxAttempts: 3, BackoffBase: time.Millisecond}
}

func testClient(t *testing.T, h http.Handler, env Envelope, brk *Breaker) *client {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	if brk == nil {
		brk = NewBreaker(100, time.Hour)
	}
	return newClient(Shard{ID: 0, URL: ts.URL}, ts.Client(), env, brk)
}

func TestClientRetriesTransientThenSucceeds(t *testing.T) {
	var hits atomic.Int64
	c := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) < 3 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"ok": true}`))
	}), fastEnvelope(), nil)
	var out struct {
		OK bool `json:"ok"`
	}
	if err := c.call(context.Background(), http.MethodGet, "/x", "", nil, &out, false); err != nil {
		t.Fatal(err)
	}
	if !out.OK {
		t.Fatal("response not decoded")
	}
	if got := c.retries.Load(); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
}

func TestClientDoesNotRetryPermanent(t *testing.T) {
	var hits atomic.Int64
	c := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusNotFound)
		w.Write([]byte(`{"error": "collection not found"}`))
	}), fastEnvelope(), nil)
	err := c.call(context.Background(), http.MethodGet, "/x", "", nil, nil, false)
	var se *api.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusNotFound {
		t.Fatalf("err = %v, want a 404 StatusError", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("a 404 was attempted %d times, want 1", hits.Load())
	}
	if c.retries.Load() != 0 {
		t.Fatalf("retries = %d, want 0", c.retries.Load())
	}
}

func TestClientRetriesGarbageBody(t *testing.T) {
	var hits atomic.Int64
	c := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Write([]byte(`{{{ not json`))
			return
		}
		w.Write([]byte(`{"ok": true}`))
	}), fastEnvelope(), nil)
	var out struct {
		OK bool `json:"ok"`
	}
	if err := c.call(context.Background(), http.MethodGet, "/x", "", nil, &out, false); err != nil {
		t.Fatal(err)
	}
	if c.retries.Load() != 1 {
		t.Fatalf("retries = %d, want 1 (garbage 2xx body must count as transient)", c.retries.Load())
	}
}

func TestClientExhaustsEnvelope(t *testing.T) {
	var hits atomic.Int64
	c := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error": "overloaded", "code": "overloaded", "retry_after_ms": 1}`))
	}), fastEnvelope(), nil)
	err := c.call(context.Background(), http.MethodGet, "/x", "", nil, nil, false)
	if err == nil {
		t.Fatal("call succeeded against a permanently failing shard")
	}
	if hits.Load() != 3 {
		t.Fatalf("attempts = %d, want MaxAttempts = 3", hits.Load())
	}
	if c.failures.Load() != 1 {
		t.Fatalf("failures = %d, want 1", c.failures.Load())
	}
}

func TestClientBreakerFastFails(t *testing.T) {
	brk := NewBreaker(1, time.Hour)
	var hits atomic.Int64
	c := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}), Envelope{MaxAttempts: 1}, brk)
	if err := c.call(context.Background(), http.MethodGet, "/x", "", nil, nil, false); err == nil {
		t.Fatal("first call succeeded")
	}
	before := hits.Load()
	err := c.call(context.Background(), http.MethodGet, "/x", "", nil, nil, false)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if hits.Load() != before {
		t.Fatal("an open breaker still let a request reach the shard")
	}
	if c.fastFails.Load() != 1 {
		t.Fatalf("fastFails = %d, want 1", c.fastFails.Load())
	}
}

func TestClientHedgeWinsOverStraggler(t *testing.T) {
	// The first request per call hangs; the hedged second answers
	// immediately. The call must finish fast via the hedge.
	var hits atomic.Int64
	block := make(chan struct{})
	defer close(block)
	c := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1)%2 == 1 {
			select {
			case <-block:
			case <-r.Context().Done():
			}
			return
		}
		w.Write([]byte(`{"ok": true}`))
	}), Envelope{MaxAttempts: 1, HedgeAfter: 10 * time.Millisecond}, nil)
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var out struct {
		OK bool `json:"ok"`
	}
	if err := c.call(ctx, http.MethodGet, "/x", "", nil, &out, true); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hedged call took %v; the hedge should have finished it fast", elapsed)
	}
	if c.hedges.Load() != 1 || c.hedgeWins.Load() != 1 {
		t.Fatalf("hedges = %d, hedgeWins = %d, want 1 and 1", c.hedges.Load(), c.hedgeWins.Load())
	}
}

func TestClientDeadlineBoundsRetries(t *testing.T) {
	// A shard that never answers must cost at most the context budget,
	// not MaxAttempts × its own patience.
	c := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}), Envelope{MaxAttempts: 3, BackoffBase: time.Millisecond}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.call(ctx, http.MethodGet, "/x", "", nil, nil, false)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("call against a hanging shard succeeded")
	}
	if elapsed > time.Second {
		t.Fatalf("call took %v against a 200ms budget", elapsed)
	}
}

func TestClientProbeFeedsHealthAndBreaker(t *testing.T) {
	var healthy atomic.Bool
	brk := NewBreaker(1, time.Hour)
	c := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"status": "ok"}`))
	}), Envelope{MaxAttempts: 1}, brk)

	if ok := c.probe(context.Background(), time.Second); ok {
		t.Fatal("probe of a failing shard reported healthy")
	}
	if c.healthy.Load() {
		t.Fatal("health gauge still true after failed probe")
	}
	if brk.Allow() {
		t.Fatal("breaker still closed after probe failure at threshold 1")
	}

	healthy.Store(true)
	if ok := c.probe(context.Background(), time.Second); !ok {
		t.Fatal("probe of a recovered shard reported unhealthy")
	}
	if !c.healthy.Load() {
		t.Fatal("health gauge still false after successful probe")
	}
	if !brk.Allow() {
		t.Fatal("successful probe did not close the breaker")
	}
	if c.probes.Load() != 2 || c.probeFail.Load() != 1 {
		t.Fatalf("probes = %d, probeFail = %d, want 2 and 1", c.probes.Load(), c.probeFail.Load())
	}
}

func TestStatusErrorCarriesStructuredBody(t *testing.T) {
	c := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error": "server overloaded", "code": "overloaded", "retry_after_ms": 1000}`))
	}), Envelope{MaxAttempts: 1}, nil)
	err := c.call(context.Background(), http.MethodGet, "/x", "", nil, nil, false)
	var se *api.StatusError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want StatusError", err)
	}
	if se.Status != http.StatusServiceUnavailable || se.Code != "overloaded" || se.RetryAfterMs != 1000 {
		t.Fatalf("StatusError = %+v", se)
	}
}
