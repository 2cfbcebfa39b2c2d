package service

import (
	"context"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// connRequests is the per-connection request counter dropFirstReusedHop
// keys on.
type connRequests struct{}

// TestProxyHopReplaysOnStaleConnection: a pooled connection the peer
// closes just as a hop is written on it — the idle-timeout race — costs
// the hop a replay on a fresh connection, not a failure. The peer here
// hangs up on the first /v1/run it receives over a connection that has
// already served a request, which is exactly what that race looks like to
// the sender. RunScenario marks the hop replayable, so net/http replays it:
// no fallback to local execution, no failure evidence against the peer.
func TestProxyHopReplaysOnStaleConnection(t *testing.T) {
	lns := make([]net.Listener, 2)
	urls := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	ms := make([]*Manager, 2)
	var dropped atomic.Int32
	for i := range ms {
		ms[i] = mustNew(t, Options{Workers: 1, CacheSize: 64, Cluster: ClusterOptions{
			Self: urls[i], Peers: urls, ProbeInterval: 25 * time.Millisecond, ProbeTimeout: 5 * time.Second,
		}})
		h := NewHandler(ms[i])
		srv := &http.Server{Handler: h}
		if i == 1 {
			srv.ConnContext = func(ctx context.Context, _ net.Conn) context.Context {
				return context.WithValue(ctx, connRequests{}, new(atomic.Int32))
			}
			srv.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				served := r.Context().Value(connRequests{}).(*atomic.Int32).Add(1)
				if r.URL.Path == "/v1/run" && served > 1 && dropped.CompareAndSwap(0, 1) {
					conn, _, err := http.NewResponseController(w).Hijack()
					if err == nil {
						conn.Close()
						return
					}
				}
				h.ServeHTTP(w, r)
			})
		}
		go srv.Serve(lns[i])
		t.Cleanup(func() {
			srv.Close()
			ms[i].Close()
		})
	}
	for i, m := range ms {
		deadline := time.Now().Add(10 * time.Second)
		for !m.router.membership.Alive(urls[1-i]) {
			if time.Now().After(deadline) {
				t.Fatal("cluster never converged")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// 96 rows: node 1 owns several whatever ports the listeners got, so
	// some hop is written onto a connection that already served one.
	spec := testSpec()
	spec.Seeds = nil
	for s := int64(1); s <= 24; s++ {
		spec.Seeds = append(spec.Seeds, s)
	}
	failuresBefore := ms[0].router.membership.ProbeFailures()
	j, err := ms[0].Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	for i := 0; i < j.Total(); i++ {
		if row, _ := j.WaitRow(context.Background(), i); row.Err != nil {
			t.Fatalf("row %d: %v", i, row.Err)
		}
	}
	if dropped.Load() != 1 {
		t.Fatal("no hop met a reused connection; the stale-connection path never ran")
	}
	if got := scrapeMetric(t, urls[0], "dynring_cluster_proxy_fallbacks_total"); got != 0 {
		t.Fatalf("proxy_fallbacks_total = %v, want 0: the dropped hop was not replayed", got)
	}
	if got := ms[0].router.membership.ProbeFailures(); got != failuresBefore {
		t.Fatalf("the dropped hop was counted as failure evidence (%d -> %d)", failuresBefore, got)
	}
	if ex := ms[0].Stats().Executions + ms[1].Stats().Executions; ex != uint64(j.Total()) {
		t.Fatalf("%d executions for %d rows, want exactly one each", ex, j.Total())
	}
}
