package clustertest

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynring"
	"dynring/internal/cluster"
)

// grid is a small mixed sweep over the given seeds.
func grid(seeds ...int64) dynring.SweepSpec {
	return dynring.SweepSpec{
		Algorithms:  []string{"KnownNNoChirality", "UnconsciousExploration"},
		Sizes:       []int{6, 8},
		Seeds:       seeds,
		Adversaries: []dynring.AdversarySpec{{Kind: "random", P: 0.4}},
	}
}

// fingerprints expands a spec to its rows' fingerprints, in grid order.
func fingerprints(t *testing.T, spec dynring.SweepSpec) []string {
	t.Helper()
	scenarios, err := spec.ScenarioList()
	if err != nil {
		t.Fatal(err)
	}
	fps := make([]string, len(scenarios))
	for i, sc := range scenarios {
		fp, err := sc.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		fps[i] = fp
	}
	return fps
}

// placementRing rebuilds the cluster's placement ring the way every node
// does.
func (c *Cluster) placementRing() *cluster.Ring {
	urls := make([]string, c.Size())
	for i := range urls {
		urls[i] = c.Node(i).URL
	}
	return cluster.NewRing(urls, cluster.DefaultVNodes)
}

// waitReplicated blocks until every node's durable tier has written the
// envelope of each fingerprint in its replica share under k-replica
// placement, failing the test after 10s. It checks the files, not the
// tier's index: the index lists a queued write before the file exists.
func (c *Cluster) waitReplicated(fps []string, k int) {
	c.t.Helper()
	ring := c.placementRing()
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < c.Size(); i++ {
		for _, fp := range fps {
			if !slices.Contains(ring.Owners(fp, k), c.Node(i).URL) {
				continue
			}
			for {
				if _, err := os.Stat(EnvelopeFile(c.Node(i).DataDir, fp)); err == nil {
					break
				}
				if time.Now().After(deadline) {
					c.t.Fatalf("node %d never wrote the envelope of %s", i, fp)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
}

// TestClusterReplicaFailoverServesFromReplica: when a fingerprint's owner
// dies, the server router serves it from the rest of its replica set. Every
// row is owned by node 1 with node 0 as its replica; the first sweep (through
// node 0) executes on the owner and replicates to node 0. After node 1
// crashes, the same grid through node 2 — in neither replica set — must
// finish with zero errored rows and zero re-executions, node 2 counting at
// least one replica hit.
func TestClusterReplicaFailoverServesFromReplica(t *testing.T) {
	c := Start(t, Options{Nodes: 3, Replicas: 2, Disk: true})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	spec := seedSpec(c.seedsOwnedBy(t, 2, 3, 1, 0))
	fps := fingerprints(t, spec)

	rows, err := c.Client(0).RunSweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Err != nil {
			t.Fatalf("row %d errored: %v", r.Index, r.Err)
		}
	}
	c.waitReplicated(fps, 2)
	execBefore := c.TotalExecutions()
	if execBefore != uint64(len(fps)) {
		t.Fatalf("first sweep executed %d scenarios, want %d", execBefore, len(fps))
	}

	c.Crash(1)
	rows, err = c.Client(2).RunSweep(ctx, spec)
	if err != nil {
		t.Fatalf("sweep after owner death: %v", err)
	}
	for _, r := range rows {
		if r.Err != nil {
			t.Fatalf("row %d errored after owner death: %v", r.Index, r.Err)
		}
	}
	if got := c.TotalExecutions(); got != execBefore {
		t.Fatalf("owner death re-executed %d already-replicated scenarios", got-execBefore)
	}
	if hits := scrapeCounter(t, c, 2, "dynring_cluster_replica_hits_total"); hits < 1 {
		t.Fatalf("replica_hits_total = %v on node 2, want >= 1", hits)
	}
}

// TestClusterExactlyOnceUnderKill is satellite 4: with a seeded fault plan
// killing a non-coordinator mid-cluster at full replication, re-running
// the grid yields a byte-identical result stream, zero errored rows, and
// zero new executions cluster-wide (the victim's in-process counter still
// participates in the sum).
func TestClusterExactlyOnceUnderKill(t *testing.T) {
	c := Start(t, Options{Nodes: 3, Replicas: 3, Disk: true, Seed: 9})
	spec := grid(1, 2, 3)
	fps := fingerprints(t, spec)

	j, err := c.Node(0).Manager.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	streamA := readStream(t, c, c.Node(0).URL+"/v1/sweeps/"+j.ID+"/results")
	c.waitReplicated(fps, 3)
	if got := c.TotalExecutions(); got != uint64(len(fps)) {
		t.Fatalf("first pass executed %d, want %d", got, len(fps))
	}

	victim := 1 + c.Plan.Intn(2) // seeded choice of a non-coordinator
	c.Crash(victim)

	j2, err := c.Node(0).Manager.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	streamB := readStream(t, c, c.Node(0).URL+"/v1/sweeps/"+j2.ID+"/results")
	if bytes.Contains(streamB, []byte(`"error"`)) {
		t.Fatalf("stream after kill carries errored rows:\n%s", streamB)
	}
	if !bytes.Equal(streamA, streamB) {
		t.Fatalf("result streams diverged after kill:\n--- before ---\n%s\n--- after ---\n%s", streamA, streamB)
	}
	if got := c.TotalExecutions(); got != uint64(len(fps)) {
		t.Fatalf("kill caused %d re-executions", got-uint64(len(fps)))
	}
}

// TestClusterStealUnderLoad saturates one owner and checks that its
// replica steals: the scenario executes on the replica (never proxied to
// the overloaded owner), the steal counter moves, and the envelope still
// lands on the owner's disk tier via the replication push.
func TestClusterStealUnderLoad(t *testing.T) {
	c := Start(t, Options{Nodes: 2, Replicas: 2, Disk: true, Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	// Brake the owner's proxy hops so its backlog outlives the window
	// between submitting the load and running the stolen scenarios.
	c.Plan.SlowProxy(500 * time.Microsecond)

	loadSeeds := make([]int64, 600)
	for i := range loadSeeds {
		loadSeeds[i] = int64(1000 + i)
	}
	load := dynring.SweepSpec{
		Algorithms:  []string{"KnownNNoChirality"},
		Sizes:       []int{8},
		Seeds:       loadSeeds,
		Adversaries: []dynring.AdversarySpec{{Kind: "random", P: 0.4}},
	}
	jLoad, err := c.Node(0).Manager.Submit(load)
	if err != nil {
		t.Fatal(err)
	}

	// Small disjoint batch headed by the overloaded node 0: exactly what
	// node 1, its replica, is allowed to steal.
	ring := c.placementRing()
	var stealSeeds []int64
	for s := int64(5000); s < 5200 && len(stealSeeds) < 6; s++ {
		spec := dynring.SweepSpec{
			Algorithms:  []string{"KnownNNoChirality"},
			Sizes:       []int{8},
			Seeds:       []int64{s},
			Adversaries: []dynring.AdversarySpec{{Kind: "random", P: 0.4}},
		}
		if ring.Owner(fingerprints(t, spec)[0]) == c.Node(0).URL {
			stealSeeds = append(stealSeeds, s)
		}
	}
	if len(stealSeeds) == 0 {
		t.Fatal("no candidate seeds hash to node 0")
	}
	batch := dynring.SweepSpec{
		Algorithms:  []string{"KnownNNoChirality"},
		Sizes:       []int{8},
		Seeds:       stealSeeds,
		Adversaries: []dynring.AdversarySpec{{Kind: "random", P: 0.4}},
	}
	batchFPs := fingerprints(t, batch)

	// Wait until node 1's gossip view shows node 0 deep in backlog.
	deadline := time.Now().Add(20 * time.Second)
	for {
		depth := 0
		for _, p := range c.Node(1).Manager.ClusterStatus().Peers {
			if p.URL == c.Node(0).URL {
				depth = p.QueueDepth
			}
		}
		if depth >= 100 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node 1 never saw node 0's backlog (last depth %d) — load drained too fast", depth)
		}
		time.Sleep(2 * time.Millisecond)
	}

	jBatch, err := c.Node(1).Manager.Submit(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := jBatch.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := jLoad.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	c.Plan.SlowProxy(0)

	if got, want := c.TotalExecutions(), uint64(len(loadSeeds)+len(stealSeeds)); got != want {
		t.Fatalf("cluster executed %d scenarios, want %d (stealing must stay exactly-once)", got, want)
	}
	if steals := scrapeCounter(t, c, 1, "dynring_cluster_steals_total"); steals <= 0 {
		t.Fatal("node 1 reports zero steals despite the saturated owner")
	}
	// Steal-then-reconcile: the stolen envelopes land back on the owner's
	// disk tier through the replication push.
	deadline = time.Now().Add(10 * time.Second)
	for _, fp := range batchFPs {
		for {
			if _, ok := c.Node(0).Manager.DurableEnvelope(fp); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("stolen envelope %s never reached the owner's disk tier", fp)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestClusterAntiEntropyRepairsCorruptEnvelope is satellite 3: a corrupt
// envelope is repaired byte-identically from a healthy peer, and a corrupt
// envelope is never shipped to a peer that lacks the key.
func TestClusterAntiEntropyRepairsCorruptEnvelope(t *testing.T) {
	c := Start(t, Options{
		Nodes: 2, Replicas: 2, Disk: true,
		AntiEntropyInterval: time.Hour, // tests drive passes explicitly
	})
	spec := grid(1, 2)
	fps := fingerprints(t, spec)
	j, err := c.Node(0).Manager.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	// k = 2 on 2 nodes: both tiers hold every envelope.
	c.waitReplicated(fps, 2)
	execBefore := c.TotalExecutions()

	// Corrupt one envelope on node 0 and repair it from node 1.
	fp := fps[0]
	path0 := EnvelopeFile(c.Node(0).DataDir, fp)
	path1 := EnvelopeFile(c.Node(1).DataDir, fp)
	healthy, err := os.ReadFile(path1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path0, int64(len(healthy)/2)); err != nil {
		t.Fatal(err)
	}
	if repairs := c.Node(0).Manager.AntiEntropyNow(); repairs < 1 {
		t.Fatalf("anti-entropy pass repaired %d envelopes, want >= 1", repairs)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := os.ReadFile(path0)
		if err == nil && bytes.Equal(got, healthy) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("corrupt envelope was not rewritten from the healthy peer (err %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got, err := os.ReadFile(path1); err != nil || !bytes.Equal(got, healthy) {
		t.Fatalf("healthy peer's envelope changed during repair (err %v)", err)
	}
	if got := c.TotalExecutions(); got != execBefore {
		t.Fatal("repair re-executed instead of copying")
	}

	// Corruption never propagates: corrupt node 0's copy of an envelope
	// node 1 no longer has — the push must re-validate and skip it.
	fp2 := fps[1]
	if fp2 == fp {
		t.Fatal("test needs two distinct fingerprints")
	}
	if err := os.Remove(EnvelopeFile(c.Node(1).DataDir, fp2)); err != nil {
		t.Fatal(err)
	}
	// A durable read on the missing file evicts it from node 1's index,
	// so its key listing honestly lacks fp2.
	if _, ok := c.Node(1).Manager.DurableEnvelope(fp2); ok {
		t.Fatal("node 1 still serves the deleted envelope")
	}
	if err := os.Truncate(EnvelopeFile(c.Node(0).DataDir, fp2), 3); err != nil {
		t.Fatal(err)
	}
	c.Node(0).Manager.AntiEntropyNow()
	if _, err := os.Stat(EnvelopeFile(c.Node(1).DataDir, fp2)); !os.IsNotExist(err) {
		t.Fatalf("corrupt envelope was propagated to the peer (stat err %v)", err)
	}
	if _, ok := c.Node(1).Manager.DurableEnvelope(fp2); ok {
		t.Fatal("corrupt envelope reached node 1's durable tier")
	}
}

// TestClusterFlapDoesNotKickAntiEntropy is satellite 2 at cluster level:
// an alive→suspect→alive flap must not fire the rejoin hook (observable as
// a targeted anti-entropy key exchange), while a real dead→alive recovery
// fires it exactly once.
func TestClusterFlapDoesNotKickAntiEntropy(t *testing.T) {
	c := Start(t, Options{
		Nodes: 2, Replicas: 2, Disk: true,
		ProbeInterval:       50 * time.Millisecond,
		AntiEntropyInterval: time.Hour, // only rejoin kicks may fetch keys
	})
	n0, n1 := c.Node(0), c.Node(1)
	var kicks atomic.Int64
	c.Plan.OnRequest(func(from, to, path string) {
		if from == n0.URL && path == "/v1/antientropy/keys" {
			kicks.Add(1)
		}
	})

	// Three flaps: each partition window spans at least one probe but
	// far fewer than DeadAfter consecutive failures.
	for i := 0; i < 3; i++ {
		c.Plan.Partition(n0.URL, n1.URL)
		time.Sleep(60 * time.Millisecond)
		c.Plan.Heal(n0.URL, n1.URL)
		c.WaitAlive()
	}
	if got := kicks.Load(); got != 0 {
		t.Fatalf("suspect flaps fired %d rejoin kicks, want 0", got)
	}

	// A real death and recovery fires exactly one.
	c.Plan.Partition(n0.URL, n1.URL)
	c.WaitPeerState(0, n1.URL, "dead")
	c.Plan.Heal(n0.URL, n1.URL)
	c.WaitPeerState(0, n1.URL, "alive")
	deadline := time.Now().Add(5 * time.Second)
	for kicks.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("recovery never kicked a targeted anti-entropy sync")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	if got := kicks.Load(); got != 1 {
		t.Fatalf("one recovery fired %d rejoin kicks, want exactly 1", got)
	}
}

// TestClusterAntiEntropyRaceHammer runs reconciliation passes concurrently
// with live sweeps on both nodes — the service-level companion to the disk
// tier's Put/Get/Close hammer, meaningful under -race.
func TestClusterAntiEntropyRaceHammer(t *testing.T) {
	c := Start(t, Options{
		Nodes: 2, Replicas: 2, Disk: true,
		AntiEntropyInterval: time.Hour,
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Node(i).Manager.AntiEntropyNow()
				}
			}
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for round := 0; round < 3; round++ {
		j, err := c.Node(round % 2).Manager.Submit(grid(int64(100 + round)))
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// readStream fetches one NDJSON result stream through the plan transport.
func readStream(t *testing.T, c *Cluster, url string) []byte {
	t.Helper()
	httpc := &http.Client{Transport: c.Plan.Transport("client")}
	resp, err := httpc.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return body
}

// scrapeCounter reads one un-labelled counter's value from a node's
// /metrics page.
func scrapeCounter(t *testing.T, c *Cluster, i int, family string) float64 {
	t.Helper()
	body := readStream(t, c, c.Node(i).URL+"/metrics")
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "#") || !strings.HasPrefix(line, family) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("family %s absent from node %d's /metrics", family, i)
	return 0
}
