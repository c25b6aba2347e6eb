package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"bond"
	"bond/internal/server"
	"bond/internal/shard"
)

// listener is one in-process HTTP endpoint on a loopback port the kernel
// picked.
type listener struct {
	url  string
	hs   *http.Server
	done chan struct{} // closed when Serve has returned
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // always returns ErrServerClosed after Shutdown
	}()
	return l, nil
}

func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.hs.Shutdown(ctx); err != nil {
		_ = l.hs.Close() // drain timed out: drop the connections
	}
	<-l.done
}

// stack is the system under test: one server, or a coordinator over
// several, all in this process and reached over loopback HTTP.
type stack struct {
	w       workload
	dir     string
	servers []*server.Server
	nodes   []*listener // one per server
	co      *shard.Coordinator
	front   *listener // coordinator endpoint; nil on a single node
	// coordTransport carries coordinator → shard calls.
	coordTransport *http.Transport
}

// serverConfig is the configuration every benchmarked server runs with:
// no fsync on the write path, no timers (maintenance is driven by the
// load generator's op count), re-clustering off so layouts stay as
// ingested.
func (w workload) serverConfig(dir string) server.Config {
	return server.Config{
		Dir:             dir,
		SegmentSize:     w.segSize,
		Fsync:           bond.FsyncNever,
		CompactRatio:    compactRatio,
		ReclusterSpread: -1,
		WALMaxBytes:     walMaxBytes,
	}
}

// startStack opens servers (and a coordinator) over dir; existing
// collections under dir load lazily, memory-mapped, on first touch.
func startStack(w workload, dir string) (*stack, error) {
	st := &stack{w: w, dir: dir}
	nodes := max(w.shards, 1)
	for i := 0; i < nodes; i++ {
		srv, err := server.New(w.serverConfig(filepath.Join(dir, fmt.Sprintf("node%d", i))))
		if err != nil {
			st.close()
			return nil, err
		}
		st.servers = append(st.servers, srv)
		l, err := listen(srv.Handler())
		if err != nil {
			st.close()
			return nil, err
		}
		st.nodes = append(st.nodes, l)
	}
	if w.shards > 0 {
		topo := &shard.Topology{}
		for i, l := range st.nodes {
			topo.Shards = append(topo.Shards, shard.Shard{ID: i, URL: l.url})
		}
		st.coordTransport = &http.Transport{MaxIdleConnsPerHost: 16}
		co, err := shard.NewCoordinator(shard.Config{
			Topology:   topo,
			HTTPClient: &http.Client{Transport: st.coordTransport},
		})
		if err != nil {
			st.close()
			return nil, err
		}
		st.co = co
		if st.front, err = listen(co.Handler()); err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

// url is the endpoint clients talk to.
func (st *stack) url() string {
	if st.front != nil {
		return st.front.url
	}
	return st.nodes[0].url
}

// checkpoint writes a checkpoint of every loaded collection on every
// node.
func (st *stack) checkpoint() error {
	for _, srv := range st.servers {
		if _, err := srv.Catalog().CheckpointLoaded(0); err != nil {
			return err
		}
	}
	return nil
}

// close stops listeners first (draining requests), then the coordinator
// and the servers. It tolerates a partially built stack.
func (st *stack) close() error {
	if st.front != nil {
		st.front.close()
	}
	for _, l := range st.nodes {
		l.close()
	}
	var first error
	if st.co != nil {
		first = st.co.Close()
	}
	if st.coordTransport != nil {
		st.coordTransport.CloseIdleConnections()
	}
	for _, srv := range st.servers {
		if err := srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
