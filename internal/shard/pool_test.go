package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"bond/internal/api"
	"bond/internal/server"
)

// A coordinator built without an HTTP client pools its connections to each
// shard: 8 clients querying concurrently, 50 queries each, open at most
// shardIdleConns connections per shard instead of redialling every call the
// two idle connections http.DefaultTransport keeps cannot carry.
func TestCoordinatorDefaultClientPoolsConnections(t *testing.T) {
	const clients, perClient, dims = 8, 50, 4
	topo := &Topology{}
	dials := make([]*atomic.Int64, 2)
	for i := range dials {
		s, err := server.New(server.Config{Dir: t.TempDir(), Logf: func(string, ...any) {}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		n := new(atomic.Int64)
		dials[i] = n
		ts := httptest.NewUnstartedServer(s.Handler())
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				n.Add(1)
			}
		}
		ts.Start()
		t.Cleanup(ts.Close)
		topo.Shards = append(topo.Shards, Shard{ID: i, URL: ts.URL})
	}
	co, err := NewCoordinator(Config{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	front := httptest.NewServer(co.Handler())
	t.Cleanup(front.Close)

	fc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	t.Cleanup(fc.CloseIdleConnections)
	send := func(method, path string, body any) error {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		req, err := http.NewRequest(method, front.URL+path, bytes.NewReader(data))
		if err != nil {
			return err
		}
		resp, err := fc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, raw)
		}
		return nil
	}
	if err := send(http.MethodPut, "/collections/c", api.CreateRequest{Dims: dims}); err != nil {
		t.Fatal(err)
	}
	vectors := deterministicVectors(64, dims)
	if err := send(http.MethodPost, "/collections/c/vectors", api.IngestRequest{Vectors: vectors}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				spec := api.QuerySpec{Query: vectors[(c*perClient+i)%len(vectors)], K: 3, Criterion: "eq"}
				if err := send(http.MethodPost, "/collections/c/query", spec); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, n := range dials {
		t.Logf("shard %d: %d connections for %d queries", i, n.Load(), clients*perClient)
		if n.Load() > shardIdleConns {
			t.Errorf("shard %d saw %d new connections, want ≤ %d", i, n.Load(), shardIdleConns)
		}
	}
}
