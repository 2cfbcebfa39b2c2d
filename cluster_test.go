package dynring_test

import (
	"context"
	"net"
	"net/http"
	"reflect"
	"testing"
	"time"

	"dynring"
	"dynring/internal/service"
)

// bootCluster starts n in-process ringsimd nodes on loopback listeners,
// seeded with each other, and waits until every node sees all peers alive.
func bootCluster(t *testing.T, n int) ([]string, []*service.Manager) {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	mgrs := make([]*service.Manager, n)
	for i := range mgrs {
		m, err := service.New(service.Options{
			Workers:   2,
			CacheSize: 256,
			Cluster: service.ClusterOptions{
				Self:          urls[i],
				Peers:         urls,
				ProbeInterval: 25 * time.Millisecond,
				ProbeTimeout:  5 * time.Second,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: service.NewHandler(m)}
		go srv.Serve(lns[i])
		mgrs[i] = m
		t.Cleanup(func() {
			srv.Close()
			m.Close()
		})
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, m := range mgrs {
		for {
			alive := 0
			for _, p := range m.ClusterStatus().Peers {
				if p.State == "alive" {
					alive++
				}
			}
			if alive == n {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("cluster never converged to all-alive")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return urls, mgrs
}

// clusterExecutions sums per-node execution counters.
func clusterExecutions(mgrs []*service.Manager) uint64 {
	var sum uint64
	for _, m := range mgrs {
		sum += m.Stats().Executions
	}
	return sum
}

// TestClusterSweepMatchesLocal: a sweep submitted to one node of a 3-node
// cluster, which routes each scenario to its fingerprint's owner, returns
// exactly the rows a local sweep produces, in grid order, while executing
// each scenario once cluster-wide — and a repeat through a different node
// executes nothing at all.
func TestClusterSweepMatchesLocal(t *testing.T) {
	urls, mgrs := bootCluster(t, 3)
	ctx := context.Background()
	spec := clientSpec()

	sw, err := spec.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	local, err := sw.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	remote, err := dynring.NewClient(urls[0]).RunSweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) != len(local) {
		t.Fatalf("cluster %d rows, local %d", len(remote), len(local))
	}
	for i, r := range remote {
		if r.Err != nil {
			t.Fatalf("row %d: %v", i, r.Err)
		}
		if r.Index != i {
			t.Fatalf("row %d has Index %d — grid order broken", i, r.Index)
		}
		if !reflect.DeepEqual(r.Result, local[i].Result) {
			t.Fatalf("row %d differs from local run:\n%+v\n%+v", i, r.Result, local[i].Result)
		}
	}
	total := uint64(len(local))
	if got := clusterExecutions(mgrs); got != total {
		t.Fatalf("cluster executed %d scenarios, want %d (exactly once)", got, total)
	}
	// Routing is exercised, not bypassed: the coordinator owns only part
	// of the grid, so some rows took the proxy hop.
	if mgrs[0].Stats().Proxied == 0 {
		t.Fatal("coordinator proxied no scenarios; the grid never left node 0")
	}

	// The same grid through another node: zero new executions.
	if _, err := dynring.NewClient(urls[1]).RunSweep(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if got := clusterExecutions(mgrs); got != total {
		t.Fatalf("repeat executed %d new scenarios, want 0", got-total)
	}
}
