package clustertest

import (
	"context"
	"os"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestClusterReusesPeerConnections: every node sends its cluster traffic
// through a pooled transport sized to its own outbound concurrency, so a
// run of cold grids — proxy hops, replication pushes and probes from both
// peers, plus the test client — costs each node a handful of accepted
// connections, not one per few rows. With the default transport's two
// idle connections per host the same run opens several times the bound.
func TestClusterReusesPeerConnections(t *testing.T) {
	const workers = 2
	c := Start(t, Options{Nodes: 3, Replicas: 2, Workers: workers})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	const grids = 20
	rows := 0
	for g := 0; g < grids; g++ {
		seeds := make([]int64, 24) // 4 rows per seed: 96-row grids
		for i := range seeds {
			seeds[i] = int64(1000 + 24*g + i)
		}
		out, err := c.Client(g%c.Size()).RunSweep(ctx, grid(seeds...))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range out {
			if r.Err != nil {
				t.Fatalf("grid %d row %d: %v", g, r.Index, r.Err)
			}
		}
		rows += len(out)
	}
	if got := c.TotalExecutions(); got != uint64(rows) {
		t.Fatalf("%d executions for %d cold rows, want exactly one each", got, rows)
	}
	// Each of the two peers holds at most 2×workers+4 idle connections to
	// a node; a few times that leaves room for the client, boot-time
	// probes and the odd cancelled request.
	bound := int64(3 * (2*workers + 4))
	for i := 0; i < c.Size(); i++ {
		got := c.Node(i).Accepted()
		t.Logf("node %d accepted %d connections over %d rows", i, got, rows)
		if got > bound {
			t.Errorf("node %d accepted %d connections over %d rows, want <= %d", i, got, rows, bound)
		}
	}
}

// TestProxyHopSkipsPushToAdopter: a coordinator that proxies a row stores
// the hop's result in its own tiers, so the owner's replication push skips
// it. Owners therefore send no /v1/replicate to the coordinator at all,
// and still — without any anti-entropy pass — every row's envelope ends
// up on every member of its replica set.
func TestProxyHopSkipsPushToAdopter(t *testing.T) {
	c := Start(t, Options{Nodes: 3, Replicas: 2, Disk: true})
	coord := c.Node(0).URL
	var mu sync.Mutex
	pushes := map[[2]string]int{} // from, to
	c.Plan.OnRequest(func(from, to, path string) {
		if path == "/v1/replicate" {
			mu.Lock()
			pushes[[2]string{from, to}]++
			mu.Unlock()
		}
	})
	seeds := make([]int64, 24)
	for i := range seeds {
		seeds[i] = int64(500 + i)
	}
	spec := grid(seeds...)
	fps := fingerprints(t, spec)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	out, err := c.Client(0).RunSweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range out {
		if r.Err != nil {
			t.Fatalf("row %d: %v", r.Index, r.Err)
		}
	}
	if got := c.TotalExecutions(); got != uint64(len(fps)) {
		t.Fatalf("%d executions for %d rows, want exactly one each", got, len(fps))
	}

	// The skip must have had something to skip: some proxied rows name
	// the coordinator as their second replica.
	ring := c.placementRing()
	adopted := 0
	for _, fp := range fps {
		if owners := ring.Owners(fp, 2); owners[0] != coord && slices.Contains(owners, coord) {
			adopted++
		}
	}
	if adopted == 0 {
		t.Fatal("no proxied row has the coordinator in its replica set; pick other seeds")
	}
	c.waitReplicated(fps, 2)
	for i := 0; i < c.Size(); i++ {
		c.Node(i).Manager.Close()
	}

	mu.Lock()
	defer mu.Unlock()
	toCoord, total := 0, 0
	for k, n := range pushes {
		total += n
		if k[1] == coord {
			toCoord += n
		}
	}
	if toCoord != 0 {
		t.Fatalf("owners pushed %d envelopes back to the coordinator that adopted them (%d adopted rows)", toCoord, adopted)
	}
	if total == 0 {
		t.Fatal("no replication push at all; the replicated path never ran")
	}
	for _, fp := range fps {
		for _, o := range ring.Owners(fp, 2) {
			for i := 0; i < c.Size(); i++ {
				if c.Node(i).URL != o {
					continue
				}
				if _, err := os.Stat(EnvelopeFile(c.Node(i).DataDir, fp)); err != nil {
					t.Errorf("replica %s lacks the envelope of %s after Close: %v", o, fp, err)
				}
			}
		}
	}
}
