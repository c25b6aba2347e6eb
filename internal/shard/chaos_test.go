package shard

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"testing"
	"time"

	"bond"
	"bond/internal/api"
	"bond/internal/topk"
)

// chaosLog appends one line to the chaos matrix log when BOND_CHAOS_LOG
// is set (CI uploads it as an artifact), mirroring it to the test log.
func chaosLog(t *testing.T, format string, args ...any) {
	t.Helper()
	line := fmt.Sprintf(format, args...)
	t.Log(line)
	path := os.Getenv("BOND_CHAOS_LOG")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Logf("chaos log: %v", err)
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "%s %s\n", time.Now().UTC().Format(time.RFC3339), line)
}

// chaosBudgetMs is the per-query deadline the chaos matrix runs under;
// promptness assertions allow chaosSlack on top for scheduler noise.
const (
	chaosBudgetMs = 600
	chaosSlack    = 2 * time.Second
)

// survivorTopK computes the ground-truth answer over the surviving
// shards by querying them directly (bypassing the fault proxies) and
// exact-merging with rebased ids — what a correct partial response must
// equal.
func survivorTopK(t *testing.T, cl *testCluster, name string, spec api.QuerySpec, missed map[int]bool) []api.Neighbor {
	t.Helper()
	crit, err := bond.ParseCriterion(spec.Criterion)
	if err != nil {
		t.Fatal(err)
	}
	var lists [][]topk.Result
	for s, raw := range cl.raw {
		if missed[s] {
			continue
		}
		direct := spec
		direct.TimeoutMs = 0
		direct.Policy = ""
		var resp api.QueryResponse
		if status, body := doJSON(t, http.MethodPost, raw.URL+"/collections/"+name+"/query", direct, &resp); status != http.StatusOK {
			t.Fatalf("direct query of shard %d: status %d: %s", s, status, body)
		}
		list := make([]topk.Result, len(resp.Results))
		for i, n := range resp.Results {
			list[i] = topk.Result{ID: cl.co.topo.Global(s, n.ID), Score: n.Score}
		}
		lists = append(lists, list)
	}
	merged := topk.Merge(spec.K, !crit.Distance(), lists...)
	out := make([]api.Neighbor, len(merged))
	for i, r := range merged {
		out[i] = api.Neighbor{ID: r.ID, Score: r.Score}
	}
	return out
}

func neighborsEqual(a, b []api.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

// TestCoordinatorChaosMatrix sweeps fault × policy: shard 1 of 3 is
// killed / hung / flapping / garbage-responding while queries run under
// both degradation policies. Partial mode must return the exact top-k
// over the survivors marked partial; strict mode a clean error — both
// within the request deadline. A flapping shard must be ridden out by
// the retry envelope with no degradation at all.
func TestCoordinatorChaosMatrix(t *testing.T) {
	for _, fault := range []string{faultKill, faultSlow, faultFlap, faultGarbage} {
		t.Run(fault, func(t *testing.T) {
			cl := newTestCluster(t, 3, fastTestConfig())
			const name, dims = "c", 6
			if status, _ := doJSON(t, http.MethodPut, cl.front.URL+"/collections/"+name, api.CreateRequest{Dims: dims}, nil); status != http.StatusCreated {
				t.Fatal("create failed")
			}
			vectors := deterministicVectors(24, dims)
			if status, raw := doJSON(t, http.MethodPost, cl.front.URL+"/collections/"+name+"/vectors", api.IngestRequest{Vectors: vectors}, nil); status != http.StatusOK {
				t.Fatalf("ingest: status %d: %s", status, raw)
			}
			spec := api.QuerySpec{Query: deterministicVectors(25, dims)[24], K: 8, Strategy: "exact", TimeoutMs: chaosBudgetMs}

			// Healthy baseline before any fault.
			var healthy api.QueryResponse
			if status, raw := doJSON(t, http.MethodPost, cl.front.URL+"/collections/"+name+"/query", spec, &healthy); status != http.StatusOK {
				t.Fatalf("healthy query: status %d: %s", status, raw)
			}
			survivors := survivorTopK(t, cl, name, spec, map[int]bool{1: true})

			cl.proxies[1].setMode(fault)
			for _, policy := range []string{"strict", "partial"} {
				q := spec
				q.Policy = policy
				start := time.Now()
				var resp api.QueryResponse
				var e api.Error
				var status int
				if policy == "strict" {
					var raw []byte
					status, raw = doJSON(t, http.MethodPost, cl.front.URL+"/collections/"+name+"/query", q, nil)
					_ = json.Unmarshal(raw, &e)
					_ = json.Unmarshal(raw, &resp)
				} else {
					status, _ = doJSON(t, http.MethodPost, cl.front.URL+"/collections/"+name+"/query", q, &resp)
				}
				elapsed := time.Since(start)
				if elapsed > time.Duration(chaosBudgetMs)*time.Millisecond+chaosSlack {
					t.Fatalf("%s/%s: query took %v against a %dms budget", fault, policy, elapsed, chaosBudgetMs)
				}

				switch {
				case fault == faultFlap:
					// Retries ride out a flapping shard: full answer, no
					// degradation, under both policies.
					if status != http.StatusOK || resp.Partial {
						t.Fatalf("flap/%s: status %d partial %v, want a full 200", policy, status, resp.Partial)
					}
					if !neighborsEqual(resp.Results, healthy.Results) {
						t.Fatalf("flap/%s: results diverge from the healthy baseline", policy)
					}
				case policy == "strict":
					if status < 500 {
						t.Fatalf("%s/strict: status %d, want a 5xx error", fault, status)
					}
					if len(e.MissedShards) != 1 || e.MissedShards[0] != 1 {
						t.Fatalf("%s/strict: missed_shards = %v, want [1]", fault, e.MissedShards)
					}
				default: // partial
					if status != http.StatusOK {
						t.Fatalf("%s/partial: status %d, want 200", fault, status)
					}
					if !resp.Partial || len(resp.MissedShards) != 1 || resp.MissedShards[0] != 1 {
						t.Fatalf("%s/partial: partial %v missed %v, want true [1]", fault, resp.Partial, resp.MissedShards)
					}
					if !neighborsEqual(resp.Results, survivors) {
						t.Fatalf("%s/partial: results are not the exact top-k over the survivors:\n  got:  %v\n  want: %v",
							fault, resp.Results, survivors)
					}
				}
				chaosLog(t, "chaos fault=%s policy=%s status=%d elapsed=%v partial=%v", fault, policy, status, elapsed, resp.Partial)
			}

			// The envelope's work must show up in the gauges.
			var st coordinatorStats
			if status, _ := doJSON(t, http.MethodGet, cl.front.URL+"/stats", nil, &st); status != http.StatusOK {
				t.Fatal("/stats failed")
			}
			s1 := st.Shards[1]
			if fault == faultFlap {
				if s1.Retries == 0 {
					t.Fatalf("flap: no retries recorded on the flapping shard: %+v", s1)
				}
			} else if s1.Failures == 0 {
				t.Fatalf("%s: no envelope failures recorded on the faulted shard: %+v", fault, s1)
			}
			chaosLog(t, "chaos fault=%s shard1 requests=%d retries=%d failures=%d breaker=%s",
				fault, s1.Requests, s1.Retries, s1.Failures, s1.Breaker)
		})
	}
}

// TestCoordinatorAllShardsDown pins the partial-policy floor: when every
// shard is missed there is nothing to degrade to, so even partial mode
// answers with a clean error, promptly.
func TestCoordinatorAllShardsDown(t *testing.T) {
	cfg := fastTestConfig()
	cfg.DegradePolicy = Partial
	cl := newTestCluster(t, 3, cfg)
	if status, _ := doJSON(t, http.MethodPut, cl.front.URL+"/collections/c", api.CreateRequest{Dims: 4}, nil); status != http.StatusCreated {
		t.Fatal("create failed")
	}
	doJSON(t, http.MethodPost, cl.front.URL+"/collections/c/vectors", api.IngestRequest{Vectors: deterministicVectors(9, 4)}, nil)
	for _, p := range cl.proxies {
		p.setMode(faultSlow)
	}
	start := time.Now()
	var e api.Error
	status, _ := doJSON(t, http.MethodPost, cl.front.URL+"/collections/c/query",
		api.QuerySpec{Query: []float64{1, 0, 0, 0}, K: 3, TimeoutMs: 400}, &e)
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("all-down query took %v against a 400ms budget", elapsed)
	}
	if status < 500 {
		t.Fatalf("status %d, want 5xx when every shard is missed", status)
	}
	if len(e.MissedShards) != 3 {
		t.Fatalf("missed_shards = %v, want all three", e.MissedShards)
	}
}

// TestCoordinatorBreakerOpensAndRecovers drives the full breaker story
// end to end: a killed shard opens its breaker (visible in /stats),
// subsequent queries fast-fail onto the partial path without paying the
// retry ladder, and a successful health probe after the shard returns
// closes the breaker and restores full answers.
func TestCoordinatorBreakerOpensAndRecovers(t *testing.T) {
	cfg := fastTestConfig()
	cfg.DegradePolicy = Partial
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = 30 * time.Millisecond
	cfg.Envelope.MaxAttempts = 1
	cl := newTestCluster(t, 3, cfg)
	const name = "c"
	if status, _ := doJSON(t, http.MethodPut, cl.front.URL+"/collections/"+name, api.CreateRequest{Dims: 4}, nil); status != http.StatusCreated {
		t.Fatal("create failed")
	}
	vectors := deterministicVectors(12, 4)
	doJSON(t, http.MethodPost, cl.front.URL+"/collections/"+name+"/vectors", api.IngestRequest{Vectors: vectors}, nil)
	spec := api.QuerySpec{Query: []float64{0.5, 0.5, 0.5, 0.5}, K: 4, Strategy: "exact", TimeoutMs: chaosBudgetMs}

	var healthy api.QueryResponse
	if status, _ := doJSON(t, http.MethodPost, cl.front.URL+"/collections/"+name+"/query", spec, &healthy); status != http.StatusOK {
		t.Fatal("healthy query failed")
	}

	cl.proxies[1].setMode(faultKill)
	// Two failed calls open the breaker (threshold 2, one attempt each).
	for i := 0; i < 2; i++ {
		var resp api.QueryResponse
		if status, _ := doJSON(t, http.MethodPost, cl.front.URL+"/collections/"+name+"/query", spec, &resp); status != http.StatusOK || !resp.Partial {
			t.Fatalf("query %d during outage: status %d partial %v", i, status, resp.Partial)
		}
	}
	var st coordinatorStats
	doJSON(t, http.MethodGet, cl.front.URL+"/stats", nil, &st)
	if st.Shards[1].Breaker != "open" || st.Shards[1].BreakerOpens < 1 {
		t.Fatalf("breaker after 2 failures = %+v, want open", st.Shards[1])
	}

	// With the breaker open the miss costs a fast-fail, not an envelope.
	var resp api.QueryResponse
	if status, _ := doJSON(t, http.MethodPost, cl.front.URL+"/collections/"+name+"/query", spec, &resp); status != http.StatusOK || !resp.Partial {
		t.Fatal("fast-fail query should still answer partial")
	}
	doJSON(t, http.MethodGet, cl.front.URL+"/stats", nil, &st)
	if st.Shards[1].FastFails == 0 {
		t.Fatalf("no fast-fails recorded with an open breaker: %+v", st.Shards[1])
	}
	chaosLog(t, "breaker opened: %+v", st.Shards[1])

	// Shard comes back; the prober notices and closes the breaker without
	// waiting for live traffic to gamble on a trial.
	cl.proxies[1].setMode(faultNone)
	waitUntil(t, 5*time.Second, "probe round to find every shard healthy again",
		func() bool { return cl.co.ProbeNow() == 3 })
	doJSON(t, http.MethodGet, cl.front.URL+"/stats", nil, &st)
	if st.Shards[1].Breaker != "closed" || !st.Shards[1].Healthy {
		t.Fatalf("shard 1 after probe = %+v, want closed and healthy", st.Shards[1])
	}
	var recovered api.QueryResponse
	if status, _ := doJSON(t, http.MethodPost, cl.front.URL+"/collections/"+name+"/query", spec, &recovered); status != http.StatusOK || recovered.Partial {
		t.Fatalf("post-recovery query: status %d partial %v, want a full 200", status, recovered.Partial)
	}
	if !neighborsEqual(recovered.Results, healthy.Results) {
		t.Fatal("post-recovery results diverge from the healthy baseline")
	}
	chaosLog(t, "breaker recovered: %+v", st.Shards[1])
}

// TestCoordinatorProberMarksUnhealthy drives ProbeNow against a dead
// shard and checks the health gauge and /readyz react.
func TestCoordinatorProberMarksUnhealthy(t *testing.T) {
	cfg := fastTestConfig()
	cfg.BreakerThreshold = 1
	cl := newTestCluster(t, 2, cfg)
	if status, _ := doJSON(t, http.MethodGet, cl.front.URL+"/readyz", nil, nil); status != http.StatusOK {
		t.Fatalf("healthy readyz: status %d", status)
	}
	cl.proxies[0].setMode(faultKill)
	if n := cl.co.ProbeNow(); n != 1 {
		t.Fatalf("ProbeNow with one dead shard = %d, want 1", n)
	}
	// Strict default policy: one unhealthy shard means not ready.
	var e api.Error
	if status, _ := doJSON(t, http.MethodGet, cl.front.URL+"/readyz", nil, &e); status != http.StatusServiceUnavailable {
		t.Fatalf("readyz with a dead shard: status %d, want 503", status)
	}
	if e.Code != "not_ready" || len(e.MissedShards) != 1 || e.MissedShards[0] != 0 {
		t.Fatalf("readyz error = %+v", e)
	}
	// Liveness is about the coordinator itself, not the shards.
	if status, _ := doJSON(t, http.MethodGet, cl.front.URL+"/healthz", nil, nil); status != http.StatusOK {
		t.Fatal("healthz should stay 200 while shards are down")
	}
}

// TestCoordinatorIngestFailureIsDetected pins ingest semantics under
// shard loss: the coordinator reports which shards missed, and never
// silently acknowledges a partially applied batch.
func TestCoordinatorIngestFailureIsDetected(t *testing.T) {
	cl := newTestCluster(t, 3, fastTestConfig())
	if status, _ := doJSON(t, http.MethodPut, cl.front.URL+"/collections/c", api.CreateRequest{Dims: 4}, nil); status != http.StatusCreated {
		t.Fatal("create failed")
	}
	// A healthy ingest first, so the failure below hits the ingest
	// fan-out itself rather than the id-counter resync.
	if status, _ := doJSON(t, http.MethodPost, cl.front.URL+"/collections/c/vectors",
		api.IngestRequest{Vectors: deterministicVectors(6, 4)}, nil); status != http.StatusOK {
		t.Fatal("healthy ingest failed")
	}
	cl.proxies[1].setMode(faultKill)
	var e api.Error
	status, _ := doJSON(t, http.MethodPost, cl.front.URL+"/collections/c/vectors",
		api.IngestRequest{Vectors: deterministicVectors(9, 4)}, &e)
	if status < 500 {
		t.Fatalf("ingest with a dead shard: status %d, want 5xx", status)
	}
	if len(e.MissedShards) != 1 || e.MissedShards[0] != 1 {
		t.Fatalf("missed_shards = %v, want [1]", e.MissedShards)
	}
	// Queries remain available on the survivors under partial policy.
	var resp api.QueryResponse
	q := api.QuerySpec{Query: []float64{1, 0, 0, 0}, K: 3, Policy: "partial", TimeoutMs: chaosBudgetMs}
	if status, _ := doJSON(t, http.MethodPost, cl.front.URL+"/collections/c/query", q, &resp); status != http.StatusOK || !resp.Partial {
		t.Fatalf("query after failed ingest: status %d partial %v", status, resp.Partial)
	}
}

// TestCoordinatorDeadlineMidFanout is the deadline-propagation e2e for
// the coordinator path: a query whose budget expires while shards are
// still working returns promptly — degraded or failed, never hung.
func TestCoordinatorDeadlineMidFanout(t *testing.T) {
	cfg := fastTestConfig()
	cfg.DegradePolicy = Partial
	cl := newTestCluster(t, 3, cfg)
	if status, _ := doJSON(t, http.MethodPut, cl.front.URL+"/collections/c", api.CreateRequest{Dims: 4}, nil); status != http.StatusCreated {
		t.Fatal("create failed")
	}
	doJSON(t, http.MethodPost, cl.front.URL+"/collections/c/vectors", api.IngestRequest{Vectors: deterministicVectors(9, 4)}, nil)
	cl.proxies[2].setMode(faultSlow) // shard 2 will outlive any budget
	start := time.Now()
	var resp api.QueryResponse
	status, _ := doJSON(t, http.MethodPost, cl.front.URL+"/collections/c/query",
		api.QuerySpec{Query: []float64{1, 0, 0, 0}, K: 3, TimeoutMs: 300}, &resp)
	elapsed := time.Since(start)
	if elapsed > 3*time.Second {
		t.Fatalf("mid-fan-out expiry took %v against a 300ms budget", elapsed)
	}
	if status != http.StatusOK || !resp.Partial {
		t.Fatalf("status %d partial %v, want a prompt partial 200", status, resp.Partial)
	}
	chaosLog(t, "deadline mid-fan-out: elapsed=%v status=%d partial=%v", elapsed, status, resp.Partial)
}
