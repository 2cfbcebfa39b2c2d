package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dynring"
	"dynring/internal/service"
)

// node is one in-process ringsimd node: a Manager behind a real loopback
// HTTP listener, exactly as cmd/ringsimd serves it.
type node struct {
	m      *service.Manager
	srv    *http.Server
	url    string
	served chan struct{} // closed when Serve returns
}

// nodeWorkers and nodeCache pin every node's pool and memory tier: two
// workers regardless of NumCPU, and the daemon's default 4096-entry cache.
const (
	nodeWorkers = 2
	nodeCache   = 4096
	replicas    = 2
)

// bootNodes starts n nodes. With n > 1 they form one cluster
// (ClusterOptions{Self, Peers, Replicas: 2}) and bootNodes returns once
// every node sees every member alive.
func bootNodes(ctx context.Context, n int) ([]*node, error) {
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*node, 0, n)
	for i := range lns {
		opts := service.Options{Workers: nodeWorkers, CacheSize: nodeCache}
		if n > 1 {
			opts.Cluster = service.ClusterOptions{Self: urls[i], Peers: urls, Replicas: replicas}
		}
		m, err := service.New(opts)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			closeNodes(nodes)
			return nil, err
		}
		nd := &node{m: m, srv: &http.Server{Handler: service.NewHandler(m)}, url: urls[i], served: make(chan struct{})}
		go func() {
			defer close(nd.served)
			_ = nd.srv.Serve(lns[i]) // always ErrServerClosed once closeNodes runs
		}()
		nodes = append(nodes, nd)
	}
	if n > 1 {
		if err := awaitConvergence(ctx, nodes); err != nil {
			closeNodes(nodes)
			return nil, err
		}
	}
	return nodes, nil
}

// awaitConvergence polls until every node reports every member alive.
func awaitConvergence(ctx context.Context, nodes []*node) error {
	deadline := time.Now().Add(30 * time.Second)
	for _, nd := range nodes {
		for {
			alive := 0
			for _, p := range nd.m.ClusterStatus().Peers {
				if p.State == "alive" {
					alive++
				}
			}
			if alive == len(nodes) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("cluster did not converge: %s sees %d of %d members alive", nd.url, alive, len(nodes))
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	return nil
}

func closeNodes(nodes []*node) {
	for _, nd := range nodes {
		nd.srv.Close()
		<-nd.served
	}
	for _, nd := range nodes {
		nd.m.Close()
	}
}

// counters is the sum of the nodes' service counters at one instant.
type counters struct {
	executions, hits, misses, fallbacks uint64
}

func readCounters(nodes []*node) counters {
	var c counters
	for _, nd := range nodes {
		st := nd.m.Stats()
		c.executions += st.Executions
		c.hits += st.Cache.Hits
		c.misses += st.Cache.Misses
		c.fallbacks += metricValue(nd.m.Registry().Render(), "dynring_cluster_proxy_fallbacks_total")
	}
	return c
}

func (c counters) sub(o counters) counters {
	return counters{c.executions - o.executions, c.hits - o.hits, c.misses - o.misses, c.fallbacks - o.fallbacks}
}

// metricValue reads an unlabelled counter from Prometheus text; absent
// families (standalone nodes register no cluster metrics) read as 0.
func metricValue(text, name string) uint64 {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return uint64(f)
		}
	}
	return 0
}

// newClients returns one service client per benchmark client, sharing a
// transport the caller closes when the run ends.
func newClients(baseURL string, n int) ([]*dynring.Client, *http.Client) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 8
	hc := &http.Client{Transport: tr}
	cs := make([]*dynring.Client, n)
	for i := range cs {
		cs[i] = &dynring.Client{BaseURL: baseURL, HTTPClient: hc}
	}
	return cs, hc
}
