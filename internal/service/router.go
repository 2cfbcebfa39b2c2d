package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dynring"
	"dynring/internal/cluster"
	"dynring/internal/sweep"
	"dynring/internal/telemetry"
)

// ClusterOptions configure cluster membership. The zero value means
// standalone (no ring, no probing, every scenario executes locally).
type ClusterOptions struct {
	// Self is this node's advertised base URL (e.g. "http://host:8080");
	// setting it enables cluster mode. It must be the URL peers can reach
	// this node at.
	Self string
	// Peers seeds the membership table; Self is filtered out, so every node
	// can be started with the identical list. Further members are
	// discovered by gossip.
	Peers []string
	// ProbeInterval and ProbeTimeout tune health probing; zero means the
	// membership defaults (1s, and probe timeout = interval).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// Replicas is the replica-set size k: each fingerprint is placed on its
	// ring owner plus the next k-1 distinct successors, completed envelopes
	// are pushed to every replica's disk tier, proxying tries owner then
	// replicas before the local fallback, and replicas may steal an
	// overloaded owner's work. Non-positive or 1 means no replication —
	// exactly the pre-replica single-owner behavior. All nodes must agree
	// on it.
	Replicas int
	// Transport, when non-nil, underlies every outbound cluster request —
	// probes, proxy hops, replication pushes, anti-entropy fetches, and
	// leave/join broadcasts. It is the fault-injection seam clustertest
	// wraps. Nil means the node's own pooled transport,
	// NewPeerTransport(Workers), which keeps enough idle connections per
	// peer that steady cluster traffic never redials. An override should
	// pool as generously, or every hop may pay a new TCP connection.
	// Manager.Close closes its idle connections if it has a
	// CloseIdleConnections method.
	Transport http.RoundTripper
	// AntiEntropyInterval paces the background reconciliation of replica
	// disk tiers (zero: a 30s default). Only meaningful with Replicas > 1
	// and a DiskDir.
	AntiEntropyInterval time.Duration
	// ProxyTimeout bounds every outbound replica RPC: proxy hops
	// (POST /v1/run), replication pushes (POST /v1/replicate), and
	// anti-entropy fetches. It is the gray-failure backstop — without it a
	// slow-but-alive owner holds the coordinator's handler goroutine for
	// as long as the peer cares to stall. Zero means the 10s default
	// (ringsimd -proxy-timeout). A job deadline tighter than the timeout
	// bounds the hop further: each hop gets min(ProxyTimeout, remaining
	// budget).
	ProxyTimeout time.Duration
	// HedgeAfter, when positive, arms hedged replica reads: a proxy hop to
	// a fingerprint's owner that has not answered after this delay fires
	// the same fingerprint at the next replica, first response wins, the
	// loser is cancelled before its result could be adopted. Exactly-once
	// stays structural — both sides serve through their own cache and
	// singleflight, and the replication push reconciles the winner's
	// envelope. Zero disables hedging (ringsimd -hedge-after).
	HedgeAfter time.Duration
	// BreakerThreshold is the consecutive bad-observation count (proxy
	// errors, timeouts, slow probe RTTs) that opens a peer's circuit
	// breaker; an open breaker routes work to the next replica immediately
	// and reports the peer "degraded". Zero means the breaker default of 5
	// (ringsimd -breaker-threshold).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses a peer before
	// admitting a half-open trial (zero: the breaker default of 5s).
	BreakerCooldown time.Duration
}

// leaveTimeout bounds the graceful-leave (and join) broadcasts at
// startup/shutdown; they are best-effort and must not stall either.
const leaveTimeout = 2 * time.Second

// stealThreshold is the minimum gossiped backlog advantage — owner queue
// depth minus local queue depth — before a replica pulls an owned
// fingerprint's work instead of proxying it. Stealing executes work the
// owner never saw (the steal replaces the proxy hop, it does not race it),
// so the only cost of stealing too eagerly is losing the owner's
// singleflight concentration; the threshold keeps the steady state on the
// owner and reserves stealing for genuine overload.
const stealThreshold = 8

// defaultAntiEntropyInterval paces replica disk-tier reconciliation when
// ClusterOptions leaves it unset.
const defaultAntiEntropyInterval = 30 * time.Second

// replicateQueueDepth bounds the asynchronous replication-push queue.
// Like the disk tier's write queue, a full queue blocks the producer
// (backpressure) rather than silently dropping replication.
const replicateQueueDepth = 256

// defaultProxyTimeout bounds replica RPCs when ClusterOptions.ProxyTimeout
// is unset: proxy hops, replication pushes, and anti-entropy fetches —
// generous enough for a slow replica, finite so a gray one cannot pin
// goroutines forever.
const defaultProxyTimeout = 10 * time.Second

// maxKeyListBytes bounds a peer's GET /v1/antientropy/keys response.
const maxKeyListBytes = 64 << 20

// PeerIdleConnTimeout is how long the peer transport keeps an idle
// connection to a peer. ringsimd's server IdleTimeout is longer, so the
// client side normally retires an idle peer connection before the server
// closes it under a request.
const PeerIdleConnTimeout = 90 * time.Second

// peerAuxConns counts a node's outbound requests to one peer that are not
// proxy hops and may be in flight together: the replication loop, the
// prober, the anti-entropy loop and a leave/join broadcast.
const peerAuxConns = 4

// NewPeerTransport returns the transport a node sends its cluster traffic
// through when ClusterOptions.Transport is nil: a clone of
// http.DefaultTransport whose idle pool covers the node's own outbound
// concurrency toward one peer — up to 2×workers proxy hops (primary plus
// hedge) plus peerAuxConns. DefaultTransport keeps only 2 idle connections
// per host, so busy peers would close and redial a loopback connection
// every few rows. Non-positive workers means runtime.NumCPU(), as for
// Options.Workers.
func NewPeerTransport(workers int) *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 2*sweep.Workers(workers, 0) + peerAuxConns
	t.MaxIdleConns = 0 // the per-host bound and the member count bound it
	t.IdleConnTimeout = PeerIdleConnTimeout
	return t
}

// router is what a cluster member has and a standalone node lacks: the
// membership and peer transport, placement (routeFor, with its steal
// decision), the hedged proxy hop, replication, anti-entropy and the
// dynring_cluster_* metrics. A standalone Manager's router is nil. It
// sees its Manager only through the cache, the backlog (the queue depth
// it gossips and steals against) and the tenant-key lookup it is given.
type router struct {
	membership   *cluster.Membership
	http         *http.Client // the peer transport; every outbound request
	replicas     int          // replica-set size k; 1 means unreplicated
	proxyTimeout time.Duration
	hedgeAfter   time.Duration // 0: hedging off
	aeInterval   time.Duration
	log          *slog.Logger

	cache     *Cache
	backlog   func() int
	tenantKey func(tenant string) string

	// proxied counts successful proxy hops; steals counts owned-elsewhere
	// scenarios executed locally because the owner's gossiped backlog
	// exceeded ours; replicaHits counts scenarios served by proxying to a
	// non-owner replica; aeRepairs counts envelopes copied between replica
	// disk tiers by anti-entropy; hedges and hedgeWins count fired hedges
	// and hedges whose response was adopted.
	proxied, steals, replicaHits, aeRepairs, hedges, hedgeWins atomic.Uint64
	// proxyRTT times successful proxy hops; proxyFallbacks counts hops
	// that failed over to local execution.
	proxyRTT       *telemetry.Histogram
	proxyFallbacks *telemetry.Counter

	aeKick chan string   // rejoin-triggered targeted syncs
	replq  chan replItem // queued replication pushes
	stop   chan struct{} // stops the replication and anti-entropy loops
	wg     sync.WaitGroup
}

// newRouter builds a cluster member's router over opts; start begins its
// probing and background loops. base is the node's root logger.
func newRouter(opts ClusterOptions, workers int, base *slog.Logger, cache *Cache, backlog func() int, tenantKey func(string) string) *router {
	rt := opts.Transport
	if rt == nil {
		rt = NewPeerTransport(workers)
	}
	r := &router{
		http:         &http.Client{Transport: rt},
		replicas:     max(opts.Replicas, 1),
		proxyTimeout: opts.ProxyTimeout,
		hedgeAfter:   opts.HedgeAfter,
		aeInterval:   opts.AntiEntropyInterval,
		log:          base.With("component", "service"),
		cache:        cache,
		backlog:      backlog,
		tenantKey:    tenantKey,
		aeKick:       make(chan string, 8),
		replq:        make(chan replItem, replicateQueueDepth),
		stop:         make(chan struct{}),
	}
	if r.proxyTimeout <= 0 {
		r.proxyTimeout = defaultProxyTimeout
	}
	if r.aeInterval <= 0 {
		r.aeInterval = defaultAntiEntropyInterval
	}
	r.membership = cluster.NewMembership(cluster.Config{
		Self:          opts.Self,
		Peers:         opts.Peers,
		ProbeInterval: opts.ProbeInterval,
		ProbeTimeout:  opts.ProbeTimeout,
		HTTPClient:    r.http,
		Logger:        base.With("component", "cluster"),
		// The breaker's slow-RTT cutoff is the per-hop proxy budget: a
		// peer whose cheap health probe takes longer than we would wait
		// for real work is gray by definition.
		Breaker: cluster.BreakerConfig{
			Threshold: opts.BreakerThreshold,
			Cooldown:  opts.BreakerCooldown,
			SlowRTT:   r.proxyTimeout,
		},
		// A peer returning from the dead (never a transient flap — the
		// membership fires this once per recovery) gets an immediate
		// targeted anti-entropy sync, which is how envelopes stolen or
		// re-homed while it was down land back on its disk tier.
		OnRejoin: func(url string) {
			select {
			case r.aeKick <- url:
			default: // a sync toward this peer is already pending
			}
		},
	})
	return r
}

// replicated reports whether r is a replicated cluster member (Replicas >
// 1); false on a nil router, so a standalone node may call it.
func (r *router) replicated() bool { return r != nil && r.replicas > 1 }

// start begins probing, announces this node to its peers, and starts the
// replication loop and (with a disk tier) the anti-entropy loop on a
// replicated cluster.
func (r *router) start() {
	r.membership.Start()
	// Tell peers we are (back) up so any that hold us dead or left
	// re-probe immediately instead of waiting out their backoff.
	go r.membership.AnnounceJoin(leaveTimeout)
	if !r.replicated() {
		return
	}
	r.goLoop(r.replicationLoop)
	if r.cache.disk != nil {
		r.goLoop(r.antiEntropyLoop)
	}
}

// goLoop runs one background loop until close.
func (r *router) goLoop(loop func()) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		loop()
	}()
}

// close stops the background loops (they use the membership), announces
// the graceful leave and stops probing. The peer transport stays usable
// for hops still in flight; its idle connections are the caller's to
// close once those are done.
func (r *router) close() {
	close(r.stop)
	r.wg.Wait()
	r.membership.Leave(leaveTimeout)
	r.membership.Close()
}

// status snapshots this node's view of the cluster as the /v1/cluster
// wire document.
func (r *router) status() dynring.ClusterStatus {
	snap := r.membership.Snapshot()
	peers := make([]dynring.PeerStatus, len(snap))
	for i, p := range snap {
		peers[i] = dynring.PeerStatus{
			URL:        p.URL,
			Self:       p.Self,
			State:      p.State.String(),
			Failures:   p.Failures,
			LastSeen:   p.LastSeen,
			QueueDepth: p.QueueDepth,
		}
		if p.Self {
			// The self entry carries this node's live backlog — the gossip
			// payload peers read for steal decisions.
			peers[i].QueueDepth = r.backlog()
		} else {
			// This node's breaker verdict for the peer; a non-closed one is
			// what the State field reports as "degraded".
			peers[i].Breaker = p.Breaker.String()
		}
	}
	return dynring.ClusterStatus{
		Enabled:  true,
		Self:     r.membership.Self(),
		VNodes:   r.membership.Ring().VNodes(),
		Replicas: r.replicas,
		Peers:    peers,
	}
}

// route is one scenario's dispatch decision: the fingerprint's ring owner,
// the ordered alive proxy candidates (owner first, then replica
// successors), and whether this node decided to steal the work instead.
type route struct {
	owner   string
	targets []string
	steal   bool
}

// routeFor decides where fp runs. Empty targets means execute locally —
// we own it (or are stealing it), fp is empty, or no replica is alive
// (placement never moves on health; availability comes from the local
// fallback). When this node is in fp's replica set and the owner's
// gossiped queue depth exceeds our own by stealThreshold, the scenario is
// stolen: executed locally even though the owner looks alive, with the
// envelope replicated back to the owner's disk tier by the usual
// replication push (or, if the owner dies before the push lands, by
// anti-entropy on its recovery).
func (r *router) routeFor(fp string) route {
	if fp == "" {
		return route{}
	}
	owners := r.membership.Ring().Owners(fp, r.replicas)
	self := r.membership.Self()
	if len(owners) == 0 || owners[0] == self {
		return route{}
	}
	rt := route{owner: owners[0]}
	if slices.Contains(owners[1:], self) && r.membership.Alive(rt.owner) {
		if depth, ok := r.membership.QueueDepth(rt.owner); ok && depth >= r.backlog()+stealThreshold {
			rt.steal = true
			return rt
		}
	}
	for _, o := range owners {
		// Routable, not Alive: an alive peer with an open breaker is gray,
		// and the whole point of the breaker is to route to the next
		// replica immediately instead of waiting out a proxy timeout
		// against it.
		if o != self && r.membership.Routable(o) {
			rt.targets = append(rt.targets, o)
		}
	}
	return rt
}

// hopResult is one proxy attempt's outcome inside proxyHedged's race.
type hopResult struct {
	rr     dynring.RunResponse
	ok     bool
	target string
	hedge  bool // launched by the hedge timer, not primary or failover
}

// proxyHedged serves one routed scenario through rt.targets with hedged
// replica reads. The primary request goes to the first target (the owner,
// or the first routable replica). With hedging armed (ClusterOptions.
// HedgeAfter > 0) and a second target available, a hedge fires the same
// fingerprint at that replica once the primary has been silent for the
// hedge delay. First good response wins; the loser is cancelled before
// its response could be adopted, which preserves
// exactly-once structurally: each side serves through its own cache and
// singleflight, the coordinator adopts exactly one result, and the
// replication push reconciles the winner's envelope across the replica
// set exactly as steal-then-reconcile does. A failed attempt (not a
// cancellation) falls over to the next unused target, hedged or not, so
// the pre-hedging sequential failover is the degenerate case. Returns
// ok=false when every target failed — the caller's local execution is the
// final fallback and cannot lose work.
func (r *router) proxyHedged(j *Job, i int, rt route) (dynring.RunResponse, bool) {
	ctx, cancel := context.WithCancel(j.ctx)
	defer cancel()
	results := make(chan hopResult, len(rt.targets))
	launched := 0
	launch := func(hedge bool) {
		target := rt.targets[launched]
		launched++
		go func() {
			rr, ok := r.proxyRun(ctx, target, j.scenarios[i], j.fps[i], j.traceID, j.Tenant, j.deadline)
			results <- hopResult{rr: rr, ok: ok, target: target, hedge: hedge}
		}()
	}
	launch(false)
	pending := 1
	var hedgeC <-chan time.Time
	if r.hedgeAfter > 0 && len(rt.targets) > 1 {
		t := time.NewTimer(r.hedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	for pending > 0 {
		select {
		case <-hedgeC:
			hedgeC = nil
			if launched < len(rt.targets) {
				r.hedges.Add(1)
				launch(true)
				pending++
			}
		case res := <-results:
			pending--
			if res.ok {
				if res.hedge {
					r.hedgeWins.Add(1)
				}
				if res.target != rt.owner {
					r.replicaHits.Add(1)
				}
				// Cancel the losing attempt before adoption: its response,
				// if any, is discarded unread, so exactly one result is
				// ever adopted for this row.
				cancel()
				return res.rr, true
			}
			if j.ctx.Err() != nil {
				return dynring.RunResponse{}, false
			}
			if pending == 0 && launched < len(rt.targets) {
				// Plain failover: the attempt failed on its own (the peer,
				// not our cancellation) — try the next replica.
				launch(false)
				pending++
			}
		}
	}
	return dynring.RunResponse{}, false
}

// proxyRun forwards one scenario to target via POST /v1/run, carrying the
// sweep's trace ID in TraceHeader so the target's span lands in the same
// trace, and the originating tenant's API key so the target accounts the
// execution to that tenant rather than to the proxying node. Every hop is
// bounded: its context times out after min(ProxyTimeout, the job's
// remaining deadline budget), and that remaining budget is forwarded in
// DeadlineHeader so the target bounds its own execution too — the
// deadline a client set on POST /v1/sweeps follows the work across every
// hop it takes. The hop names this node in AdopterHeader: the caller
// adopts the result into its own tiers, so the target's replication push
// skips it. RunScenario marks the hop replayable, so net/http replays a
// hop that met a pooled connection the peer had just closed instead of
// failing it. The second return is false when the
// caller should fall back (next replica, then local execution): the
// scenario has no wire form (custom factory), the budget is already
// spent, or the target failed — a genuine failure also feeds the membership's failure evidence
// (and through it the peer's breaker), while a hop cancelled from our own
// side (a hedge lost its race, the job was cancelled) is not evidence
// against the peer and feeds nothing. Successful hops report their RTT to
// the breaker. Retries are disabled on the hop: the local fallback IS the
// retry, and it cannot lose work. A tenant
// the target does not know (config skew across the cluster) is rejected
// there with 401, which lands here as a failed hop and degrades to the
// same fallback.
func (r *router) proxyRun(ctx context.Context, target string, sc dynring.Scenario, fp, traceID, tenant string, deadline time.Time) (dynring.RunResponse, bool) {
	sp, err := sc.WireSpec()
	if err != nil {
		return dynring.RunResponse{}, false
	}
	timeout := r.proxyTimeout
	var budget time.Duration
	if !deadline.IsZero() {
		budget = time.Until(deadline)
		if budget <= 0 {
			return dynring.RunResponse{}, false
		}
		if budget < timeout {
			timeout = budget
		}
	}
	hopCtx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	c := &dynring.Client{BaseURL: target, HTTPClient: r.http, Retries: -1, TenantKey: r.tenantKey(tenant)}
	hop := time.Now()
	rr, err := c.RunScenario(hopCtx, sp, dynring.WithTrace(traceID), dynring.WithDeadline(budget),
		dynring.WithAdopter(r.membership.Self()))
	rtt := time.Since(hop)
	if err != nil {
		if ctx.Err() != nil {
			// Our side ended the hop (hedge race decided, job cancelled or
			// expired). The peer did nothing wrong: no failure evidence, no
			// fallback noise.
			return dynring.RunResponse{}, false
		}
		r.membership.MarkFailed(target, err)
		r.proxyFallbacks.Inc()
		r.log.Warn("proxy failed, executing locally",
			"fingerprint", fp, "target", target, "trace", traceID, "error", err)
		return dynring.RunResponse{}, false
	}
	if rr.Error == "" && rr.Result == nil {
		r.proxyFallbacks.Inc()
		r.log.Warn("proxy returned no result, executing locally",
			"fingerprint", fp, "target", target, "trace", traceID)
		return dynring.RunResponse{}, false
	}
	r.membership.ObserveRTT(target, rtt)
	r.proxyRTT.Observe(rtt.Seconds())
	r.proxied.Add(1)
	return rr, true
}

// This half of the file is the replication write path and the
// anti-entropy read-repair path between replica disk tiers
// (ClusterOptions.Replicas > 1).
//
// Replication is push-on-completion: when this node executes a
// fingerprint, the envelope is queued (bounded, backpressured — like the
// disk tier's own write queue) and a background loop POSTs it to every
// other member of the fingerprint's replica set via /v1/replicate; the
// receiver lands it in its tiers through its own asynchronous disk write
// queue. The one member skipped is the adopter: a coordinator that
// proxied the fingerprint here names itself in AdopterHeader and stores
// the hop's result in its own tiers, so a push back would write the same
// envelope twice. Pushes are best-effort: a dead replica misses the push
// and is healed by anti-entropy instead.
//
// Anti-entropy makes replica -data directories converge to the set union
// of their envelopes. Content addressing is what reduces reconciliation to
// a union: equal fingerprints imply identical envelopes, so there is
// nothing to merge and no version to compare — a replica either holds a
// fingerprint's envelope or it doesn't. Each pass exchanges key listings
// with one peer, pulls envelopes this node should hold but cannot read
// (absent or corrupt — both read as absent, so corruption is repaired, not
// special-cased), and pushes envelopes the peer should hold but does not
// list. Both directions re-read and validate every envelope they ship:
// the serving side's Durable read rejects a corrupt entry, so corruption
// can be repaired from a healthy peer but never propagated to one.
//
// Every replica RPC goes through peerCall, bounded by proxyTimeout
// (ClusterOptions.ProxyTimeout, ringsimd -proxy-timeout), the same
// per-hop budget that bounds proxy hops: one knob governs how long this
// node will wait on any peer.

// replItem is one queued replication push; adopter is the member that
// already holds the envelope ("" for none).
type replItem struct {
	fp      string
	res     dynring.Result
	adopter string
}

// replicateRequest is the wire body of POST /v1/replicate and the response
// of GET /v1/antientropy/entry: one content-addressed envelope.
type replicateRequest struct {
	Fingerprint string         `json:"fingerprint"`
	Result      dynring.Result `json:"result"`
}

// antiEntropyKeys is the wire body of GET /v1/antientropy/keys.
type antiEntropyKeys struct {
	Keys []string `json:"keys"`
}

// replicate queues fp's completed envelope for push to its other
// replicas except adopter. No-op when unreplicated. A full queue blocks
// (backpressure) unless the node is shutting down.
func (r *router) replicate(fp string, res dynring.Result, adopter string) {
	if !r.replicated() {
		return
	}
	select {
	case r.replq <- replItem{fp: fp, res: res, adopter: adopter}:
	case <-r.stop:
	}
}

// replicationLoop drains the replication queue until close.
func (r *router) replicationLoop() {
	for {
		select {
		case <-r.stop:
			return
		case it := <-r.replq:
			r.pushReplicas(it)
		}
	}
}

// pushReplicas sends one envelope to every other currently-alive member of
// its replica set but the adopter. Only a current member can match, so an
// adopter value naming no member skips nothing. A dead or unreachable
// replica is skipped — anti-entropy repairs it on recovery.
func (r *router) pushReplicas(it replItem) {
	self := r.membership.Self()
	for _, o := range r.membership.Ring().Owners(it.fp, r.replicas) {
		if o == self || o == it.adopter || !r.membership.Alive(o) {
			continue
		}
		if err := r.peerCall(o+"/v1/replicate", &replicateRequest{it.fp, it.res}, nil, 0); err != nil {
			r.log.Warn("replication push failed", "fingerprint", it.fp, "target", o, "error", err)
		}
	}
}

// peerCall is one replica RPC, bounded by proxyTimeout: a POST of push
// when it is non-nil (a /v1/replicate envelope), a GET otherwise. A non-2xx
// status is an error; a 2xx JSON body is decoded into out (when non-nil)
// from at most limit bytes. The body is drained before it is closed, so
// the connection goes back to the pool.
func (r *router) peerCall(endpoint string, push *replicateRequest, out any, limit int64) error {
	ctx, cancel := context.WithTimeout(context.Background(), r.proxyTimeout)
	defer cancel()
	method, body := http.MethodGet, io.Reader(nil)
	if push != nil {
		b, err := json.Marshal(push)
		if err != nil {
			return err
		}
		method, body = http.MethodPost, bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, endpoint, body)
	if err != nil {
		return err
	}
	if push != nil {
		req.Header.Set("Content-Type", "application/json")
		// Adoption is idempotent by fingerprint; the key lets net/http
		// replay a push that met a pooled connection the peer had just
		// closed.
		req.Header.Set("Idempotency-Key", push.Fingerprint)
		// The push's budget rides along, so the receiver bounds its own
		// side of the hop exactly as /v1/run does with a propagated job
		// deadline.
		req.Header.Set(DeadlineHeader, r.proxyTimeout.String())
	}
	resp, err := r.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	defer cluster.Drain(resp.Body)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("%s %s: %s", method, endpoint, resp.Status)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(io.LimitReader(resp.Body, limit)).Decode(out)
}

// antiEntropyLoop paces background reconciliation: a full sweep over alive
// peers every aeInterval, plus immediate targeted syncs when a peer
// returns from the dead (the OnRejoin kick) — that is how envelopes stolen
// or executed on its behalf while it was down land back on its disk tier
// without waiting out the interval.
func (r *router) antiEntropyLoop() {
	t := time.NewTicker(r.aeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case peer := <-r.aeKick:
			r.antiEntropySync(peer)
		case <-t.C:
			r.antiEntropyNow()
		}
	}
}

// antiEntropyNow runs one synchronous reconciliation pass against every
// alive peer and returns the number of envelopes repaired (pulled or
// pushed); 0 when unreplicated, or on a nil router.
func (r *router) antiEntropyNow() int {
	if !r.replicated() {
		return 0
	}
	repairs := 0
	for _, p := range r.membership.Snapshot() {
		if p.Self || p.State != cluster.StateAlive {
			continue
		}
		repairs += r.antiEntropySync(p.URL)
	}
	return repairs
}

// antiEntropySync reconciles this node's durable tier with one peer's:
// pull every envelope the peer lists that this node should hold (self in
// its replica set) but cannot read — absent and corrupt read the same, so
// a corrupt local copy is repaired from the healthy peer — then push every
// envelope this node holds that the peer should hold but does not list.
// Returns the number of envelopes repaired in either direction.
func (r *router) antiEntropySync(peer string) int {
	var remote antiEntropyKeys
	if err := r.peerCall(peer+"/v1/antientropy/keys", nil, &remote, maxKeyListBytes); err != nil {
		r.log.Warn("anti-entropy key exchange failed", "peer", peer, "error", err)
		return 0
	}
	ring := r.membership.Ring()
	self := r.membership.Self()
	inSet := func(fp, member string) bool { return slices.Contains(ring.Owners(fp, r.replicas), member) }
	repairs := 0
	remoteSet := make(map[string]bool, len(remote.Keys))
	for _, fp := range remote.Keys {
		remoteSet[fp] = true
		if !inSet(fp, self) {
			continue
		}
		if _, ok := r.cache.Durable(fp); ok {
			continue // readable and valid locally; nothing to repair
		}
		// The peer's copy may itself be corrupt (it serves only validated
		// envelopes, so corruption surfaces as a 404 here) or the peer
		// died mid-sync; skip, never fail the pass. A response whose
		// embedded fingerprint disagrees with the request is skipped too:
		// a renamed or confused entry can only miss, never land under the
		// wrong key.
		var doc replicateRequest
		if err := r.peerCall(peer+"/v1/antientropy/entry?fp="+url.QueryEscape(fp), nil, &doc, maxEnvelopeBytes); err != nil || doc.Fingerprint != fp {
			continue
		}
		r.cache.Put(fp, doc.Result)
		repairs++
	}
	for _, fp := range r.cache.DurableKeys() {
		if remoteSet[fp] || !inSet(fp, peer) {
			continue
		}
		res, ok := r.cache.Durable(fp)
		if !ok {
			continue // our own copy is corrupt; it must not propagate
		}
		if err := r.peerCall(peer+"/v1/replicate", &replicateRequest{fp, res}, nil, 0); err != nil {
			continue
		}
		repairs++
	}
	if repairs > 0 {
		r.aeRepairs.Add(uint64(repairs))
		r.log.Info("anti-entropy repaired envelopes", "peer", peer, "repairs", repairs)
	}
	return repairs
}

// registerMetrics registers the dynring_cluster_* families on reg: peer
// states, the proxy path, replication and anti-entropy, breakers and
// hedges. Only a router registers them, so a standalone /metrics page
// carries none.
func (r *router) registerMetrics(reg *telemetry.Registry) {
	for _, state := range []cluster.State{cluster.StateAlive, cluster.StateSuspect, cluster.StateDead, cluster.StateLeft, cluster.StateDegraded} {
		reg.GaugeFunc("dynring_cluster_peers",
			"Cluster members by probe-derived health state, as seen by this node (self counts as alive).",
			func() float64 {
				n := 0
				for _, p := range r.membership.Snapshot() {
					if p.State == state {
						n++
					}
				}
				return float64(n)
			}, telemetry.Label{Name: "state", Value: state.String()})
	}
	reg.CounterFunc("dynring_cluster_proxied_total",
		"Scenarios this node proxied to their owning peer instead of executing.",
		func() float64 { return float64(r.proxied.Load()) })
	reg.CounterFunc("dynring_cluster_probe_failures_total",
		"Failed health probes (including out-of-band proxy-failure evidence).",
		func() float64 { return float64(r.membership.ProbeFailures()) })
	r.proxyFallbacks = reg.Counter("dynring_cluster_proxy_fallbacks_total",
		"Proxy hops that failed and fell back to local execution.")
	r.proxyRTT = reg.Histogram("dynring_cluster_proxy_rtt_seconds",
		"Round-trip time of successful POST /v1/run proxy hops.", nil)
	reg.CounterFunc("dynring_cluster_steals_total",
		"Owned-elsewhere scenarios executed locally because the owner's gossiped queue depth exceeded this replica's by the steal threshold.",
		func() float64 { return float64(r.steals.Load()) })
	reg.CounterFunc("dynring_cluster_replica_hits_total",
		"Scenarios served by proxying to a non-owner replica after the owner was unreachable.",
		func() float64 { return float64(r.replicaHits.Load()) })
	reg.CounterFunc("dynring_cluster_antientropy_repairs_total",
		"Envelopes copied between replica disk tiers by the anti-entropy pass (pulled repairs plus pushes to lagging peers).",
		func() float64 { return float64(r.aeRepairs.Load()) })
	// Per-state peer counts, not per-peer series: breaker state is a
	// constant-cardinality label (three states) where peer URLs would be
	// unbounded.
	for _, bst := range []cluster.BreakerState{cluster.BreakerClosed, cluster.BreakerOpen, cluster.BreakerHalfOpen} {
		reg.GaugeFunc("dynring_cluster_breaker_state",
			"Peers by circuit-breaker state as seen by this node (open and half_open peers are not routable until a trial succeeds).",
			func() float64 { return float64(r.membership.BreakerStates()[bst]) },
			telemetry.Label{Name: "state", Value: bst.String()})
	}
	reg.CounterFunc("dynring_cluster_hedges_total",
		"Hedged replica requests fired because the owner's observed latency crossed the hedge threshold.",
		func() float64 { return float64(r.hedges.Load()) })
	reg.CounterFunc("dynring_cluster_hedge_wins_total",
		"Hedged requests whose replica answered before the slow owner (the owner's in-flight hop is cancelled, never adopted).",
		func() float64 { return float64(r.hedgeWins.Load()) })
}
