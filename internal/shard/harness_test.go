package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bond/internal/server"
)

// Fault modes the chaos proxy injects in front of a real shard.
const (
	faultNone    = ""
	faultKill    = "kill"    // abort the connection: the shard process is gone
	faultSlow    = "slow"    // hang well past any reasonable deadline
	faultFlap    = "flap"    // alternate dead and alive per request
	faultGarbage = "garbage" // answer 200 with an undecodable body
)

// faultProxy fronts a healthy shard and injects one failure mode on
// demand — the chaos suite's stand-in for killed, hung, flapping, and
// corrupted shard processes.
type faultProxy struct {
	backend http.Handler
	mode    atomic.Value // one of the fault constants
	hits    atomic.Int64 // requests seen while flapping
	// outlived counts hung requests that ran out the hang's timer instead
	// of ending when the caller hung up.
	outlived atomic.Int64

	seenMu sync.Mutex
	seen   map[string]int // requests by "METHOD path Content-Type"
}

// sent returns how many requests the proxy saw with the given method,
// path and Content-Type.
func (p *faultProxy) sent(method, path, ctype string) int {
	p.seenMu.Lock()
	defer p.seenMu.Unlock()
	return p.seen[method+" "+path+" "+ctype]
}

func (p *faultProxy) setMode(m string) { p.mode.Store(m) }

func (p *faultProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.seenMu.Lock()
	if p.seen == nil {
		p.seen = map[string]int{}
	}
	p.seen[r.Method+" "+r.URL.Path+" "+r.Header.Get("Content-Type")]++
	p.seenMu.Unlock()
	mode, _ := p.mode.Load().(string)
	switch mode {
	case faultKill:
		panic(http.ErrAbortHandler) // slams the connection shut
	case faultSlow:
		// Read the body first: net/http notices that the caller hung up,
		// and cancels the request's context, only once the body is read.
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
			return
		case <-time.After(5 * time.Second):
			p.outlived.Add(1)
		}
	case faultFlap:
		if p.hits.Add(1)%2 == 1 {
			panic(http.ErrAbortHandler)
		}
	case faultGarbage:
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{{{ not json at all`)
		return
	}
	p.backend.ServeHTTP(w, r)
}

// testCluster is N real single-node servers behind fault proxies, with a
// coordinator fanning out across them.
type testCluster struct {
	t       *testing.T
	co      *Coordinator
	front   *httptest.Server   // the coordinator's HTTP face
	proxies []*faultProxy      // per-shard fault injection
	raw     []*httptest.Server // direct shard endpoints bypassing the proxies
	dirs    []string           // each shard's data directory
}

// fastTestConfig is a chaos-friendly envelope: real retry/hedge
// semantics, millisecond costs.
func fastTestConfig() Config {
	return Config{
		Envelope: Envelope{
			MaxAttempts: 2,
			BackoffBase: time.Millisecond,
		},
		BreakerThreshold: 1000, // out of the way unless a test lowers it
		BreakerCooldown:  50 * time.Millisecond,
		DefaultTimeout:   5 * time.Second,
	}
}

// newTestCluster builds n real shards (each a full single-node server
// over its own temp dir) behind fault proxies and a coordinator over
// them. ProbeInterval is forced to 0: tests drive ProbeNow directly so
// health transitions are deterministic.
func newTestCluster(t *testing.T, n int, cfg Config) *testCluster {
	t.Helper()
	cl := &testCluster{t: t}
	topo := &Topology{}
	for i := 0; i < n; i++ {
		dir := t.TempDir()
		s, err := server.New(server.Config{Dir: dir, Logf: func(string, ...any) {}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		cl.dirs = append(cl.dirs, dir)
		raw := httptest.NewServer(s.Handler())
		t.Cleanup(raw.Close)
		proxy := &faultProxy{backend: s.Handler()}
		// Runs after front.Close, which waits for every handler: the
		// coordinator must cancel each request it abandons on a hung shard.
		t.Cleanup(func() {
			if n := proxy.outlived.Load(); n > 0 {
				t.Errorf("shard %d: %d hung requests ran out their timer instead of being cancelled", i, n)
			}
		})
		front := httptest.NewServer(proxy)
		t.Cleanup(front.Close)
		cl.raw = append(cl.raw, raw)
		cl.proxies = append(cl.proxies, proxy)
		topo.Shards = append(topo.Shards, Shard{ID: i, URL: front.URL})
	}
	cfg.Topology = topo
	cfg.ProbeInterval = 0
	co, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	cl.co = co
	cl.front = httptest.NewServer(co.Handler())
	t.Cleanup(cl.front.Close)
	return cl
}

// newOracleServer builds the single-node oracle the coordinator must be
// byte-identical to.
func newOracleServer(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := server.New(server.Config{Dir: t.TempDir(), Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// doJSON issues one request with an optional JSON body, decodes the JSON
// response into out (when non-nil), and returns the status code and raw
// body.
func doJSON(t *testing.T, method, url string, body, out any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
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
			t.Fatalf("decode %s %s response %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, raw
}

// rankedBody is a query response with the ranked results kept as raw
// bytes, so oracle comparisons are byte-exact rather than value-exact.
type rankedBody struct {
	Results      json.RawMessage `json:"results"`
	Truncated    bool            `json:"truncated"`
	Partial      bool            `json:"partial"`
	MissedShards []int           `json:"missed_shards"`
}

// waitUntil polls cond until it reports true or the deadline passes,
// failing the test on timeout. It replaces fixed sleeps around timing-
// dependent state (breaker cooldowns, prober rounds): the suite then
// waits exactly as long as the transition takes instead of guessing,
// which keeps -race -count=5 runs on loaded machines deterministic.
func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(time.Millisecond)
	}
}

// deterministicVectors generates count vectors of the given dims from a
// fixed linear-congruential stream, so shards and oracle see identical
// data without sharing state.
func deterministicVectors(count, dims int) [][]float64 {
	state := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	out := make([][]float64, count)
	for i := range out {
		v := make([]float64, dims)
		for d := range v {
			v[d] = next()
		}
		out[i] = v
	}
	return out
}
