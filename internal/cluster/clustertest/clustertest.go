package clustertest

import (
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"dynring"
	"dynring/internal/service"
)

// Options shape one in-process cluster. The zero value of every field has
// a sensible test default; only Nodes is required.
type Options struct {
	// Nodes is the cluster size (required, >= 1).
	Nodes int
	// Replicas is the replica-set size k passed to every node; 0 or 1
	// means unreplicated single-owner placement.
	Replicas int
	// Workers is the per-node worker pool (default 2).
	Workers int
	// CacheSize is the per-node memory tier bound (default 256 entries).
	CacheSize int
	// Disk gives every node a durable -data tier under t.TempDir() —
	// required for replication and anti-entropy tests.
	Disk bool
	// ProbeInterval and ProbeTimeout tune membership probing (defaults
	// 25ms and 5s: fast convergence, but no flapping under -race load).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// AntiEntropyInterval paces background reconciliation (default leaves
	// the service default; tests usually drive AntiEntropyNow directly).
	AntiEntropyInterval time.Duration
	// Seed seeds the fault plan when Plan is nil.
	Seed int64
	// Plan optionally supplies a pre-scripted fault plan (for KillAt
	// schedules that must be laid down before boot traffic starts).
	Plan *FaultPlan
	// ProxyTimeout bounds every node's outbound replica RPCs (0 leaves
	// the service's 10s default). Gray-failure tests lower it so a slowed
	// node trips timeouts in test time.
	ProxyTimeout time.Duration
	// HedgeAfter arms hedged replica reads on every node (0 = disabled,
	// the service default).
	HedgeAfter time.Duration
	// BreakerThreshold and BreakerCooldown tune every node's per-peer
	// circuit breakers (0 = the breaker defaults of 5 and 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Tenants installs the same admission config on every node (nil = the
	// open anonymous default).
	Tenants []service.TenantConfig
	// ShedQueueDepth and ShedOpenBreakers arm the overload brownout on
	// every node (0 = shedding disabled, the service default).
	ShedQueueDepth   int
	ShedOpenBreakers int
}

// Cluster is a running in-process cluster and the fault plan every node's
// transport consults.
type Cluster struct {
	// Plan injects faults into all cluster and client traffic.
	Plan  *FaultPlan
	t     *testing.T
	nodes []*Node
}

// Node is one cluster member: a full service.Manager behind a real
// loopback listener, so probes, proxy hops, replication pushes, and
// anti-entropy fetches travel the actual HTTP stack (through the plan's
// transport).
type Node struct {
	// Manager is the node's service manager — counters, ClusterStatus,
	// AntiEntropyNow, and DurableKeys stay readable even after Crash.
	Manager *service.Manager
	// URL is the node's advertised base URL.
	URL string
	// DataDir roots the node's durable tier ("" without Options.Disk).
	DataDir string
	srv     *http.Server
	crashed bool
}

// Start boots opts.Nodes members on loopback listeners, each seeded with
// the full peer list and the plan's transport, and waits until every node
// sees every other alive. Cleanup is registered on t.
func Start(t *testing.T, opts Options) *Cluster {
	t.Helper()
	if opts.Nodes < 1 {
		t.Fatal("clustertest: Options.Nodes must be >= 1")
	}
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.CacheSize <= 0 {
		opts.CacheSize = 256
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 25 * time.Millisecond
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = 5 * time.Second
	}
	plan := opts.Plan
	if plan == nil {
		plan = NewFaultPlan(opts.Seed)
	}
	lns := make([]net.Listener, opts.Nodes)
	urls := make([]string, opts.Nodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	c := &Cluster{Plan: plan, t: t, nodes: make([]*Node, opts.Nodes)}
	for i := range c.nodes {
		o := service.Options{Workers: opts.Workers, CacheSize: opts.CacheSize,
			Tenants: opts.Tenants, ShedQueueDepth: opts.ShedQueueDepth,
			ShedOpenBreakers: opts.ShedOpenBreakers}
		if opts.Disk {
			o.DiskDir = t.TempDir()
		}
		o.Cluster = service.ClusterOptions{
			Self:                urls[i],
			Peers:               urls,
			ProbeInterval:       opts.ProbeInterval,
			ProbeTimeout:        opts.ProbeTimeout,
			Replicas:            opts.Replicas,
			Transport:           plan.Transport(urls[i]),
			AntiEntropyInterval: opts.AntiEntropyInterval,
			ProxyTimeout:        opts.ProxyTimeout,
			HedgeAfter:          opts.HedgeAfter,
			BreakerThreshold:    opts.BreakerThreshold,
			BreakerCooldown:     opts.BreakerCooldown,
		}
		m, err := service.New(o)
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: service.NewHandler(m)}
		go srv.Serve(lns[i])
		c.nodes[i] = &Node{Manager: m, URL: urls[i], DataDir: o.DiskDir, srv: srv}
		t.Cleanup(func() {
			srv.Close()
			m.Close()
		})
	}
	c.WaitAlive()
	return c
}

// Node returns member i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Size returns the cluster's member count, crashed nodes included.
func (c *Cluster) Size() int { return len(c.nodes) }

// Client returns a client pointed at node i, with all its traffic subject
// to the fault plan (as party "client").
func (c *Cluster) Client(i int) *dynring.Client {
	return &dynring.Client{
		BaseURL:    c.nodes[i].URL,
		HTTPClient: &http.Client{Transport: c.Plan.Transport("client")},
	}
}

// Crash simulates SIGKILL of node i: its listener closes (in-flight
// connections included) and the plan fails all traffic to or from it. The
// Manager is deliberately left running so the test can still read its
// in-process counters — a real dead process would simply report nothing.
func (c *Cluster) Crash(i int) {
	c.t.Helper()
	n := c.nodes[i]
	c.Plan.Kill(n.URL)
	n.srv.Close()
	n.crashed = true
}

// WaitAlive blocks until every non-crashed node sees every other
// non-crashed node alive, failing the test after 10s.
func (c *Cluster) WaitAlive() {
	c.t.Helper()
	want := 0
	for _, n := range c.nodes {
		if !n.crashed {
			want++
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range c.nodes {
		if n.crashed {
			continue
		}
		for {
			alive := 0
			for _, p := range n.Manager.ClusterStatus().Peers {
				if p.State == "alive" && !c.crashedURL(p.URL) {
					alive++
				}
			}
			if alive == want {
				break
			}
			if time.Now().After(deadline) {
				c.t.Fatalf("clustertest: node %s never saw %d peers alive", n.URL, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// WaitPeerState blocks until node viewer reports peer in one of the given
// wire states ("alive", "suspect", "dead", "left", "degraded"), failing
// after 10s.
func (c *Cluster) WaitPeerState(viewer int, peer string, states ...string) {
	c.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, p := range c.nodes[viewer].Manager.ClusterStatus().Peers {
			if p.URL != peer {
				continue
			}
			for _, s := range states {
				if p.State == s {
					return
				}
			}
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("clustertest: node %d never saw %s reach %v", viewer, peer, states)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TotalExecutions sums every node's engine-execution counter — the
// observable form of the cluster-wide exactly-once property. Crashed
// nodes' managers still count: their in-process totals are what a real
// crashed process would have flushed to metrics before dying.
func (c *Cluster) TotalExecutions() uint64 {
	var sum uint64
	for _, n := range c.nodes {
		sum += n.Manager.Stats().Executions
	}
	return sum
}

// EnvelopeFile returns the path of fp's envelope in a node's DataDir,
// mirroring the durable tier's naming rule for safe keys (fingerprints are
// fixed-length hex, so they map to "<fp>.json" directly).
func EnvelopeFile(dataDir, fp string) string {
	return fmt.Sprintf("%s/%s.json", dataDir, fp)
}

func (c *Cluster) crashedURL(url string) bool {
	for _, n := range c.nodes {
		if n.URL == url {
			return n.crashed
		}
	}
	return false
}
