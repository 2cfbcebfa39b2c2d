package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dynring"
	"dynring/internal/cluster"
	"dynring/internal/rescache"
	"dynring/internal/service/sched"
	"dynring/internal/sweep"
	"dynring/internal/telemetry"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("service: manager closed")

// Options configure a Manager.
type Options struct {
	// Workers bounds the shared pool all jobs run on; non-positive means
	// runtime.NumCPU().
	Workers int
	// CacheSize bounds the in-memory result cache in entries; non-positive
	// disables the memory tier.
	CacheSize int
	// DiskDir, when non-empty, roots the durable content-addressed result
	// tier (ringsimd -data): results survive restarts and are warm-started
	// into the memory tier on boot.
	DiskDir string
	// JobHistory bounds how many settled jobs are retained for status and
	// result queries; when exceeded, the oldest settled jobs are evicted
	// (their IDs then answer 404). Running jobs are never evicted.
	// Non-positive means the default of 1024.
	JobHistory int
	// Cluster, when Cluster.Self is set, runs the node as a member of a
	// sharded cluster: scenarios whose fingerprint another node owns are
	// proxied there instead of executed locally.
	Cluster ClusterOptions
	// Tenants, when non-empty, turns on the admission layer: work-creating
	// requests must present one of these tenants' API keys, each tenant is
	// scheduled by its weight and bounded by its quotas, and per-tenant
	// dynring_admission_* metric families are registered. Empty means the
	// single anonymous tenant with no quotas — scheduling is then identical
	// to the pre-tenant service. Must pass ValidateTenants.
	Tenants []TenantConfig
	// ShedQueueDepth, when positive, arms overload brownout: once the
	// scheduler backlog reaches this many undispatched scenarios, new
	// anonymous and negative-priority submissions are shed with
	// ErrOverloaded (HTTP 503 + Retry-After) while configured tenants'
	// work, fully-cached grids, and every read endpoint keep being served.
	// Zero disables queue-depth shedding (ringsimd -shed-queue-depth).
	ShedQueueDepth int
	// ShedOpenBreakers, when positive, adds a cluster-health brownout
	// trigger: shedding also engages while at least this many peers have
	// open circuit breakers — locally-admitted work would drain slowly
	// when most of the ring is gray. Zero disables the trigger.
	ShedOpenBreakers int
	// Logger, when non-nil, receives structured operational records
	// (cluster state transitions, skipped disk entries, proxy fallbacks,
	// job lifecycle). The manager derives per-component child loggers
	// ("service", "cluster", "cache") from it. Nil discards everything.
	Logger *slog.Logger
}

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
	// VNodes is the per-member virtual-node count on the placement ring
	// (non-positive: cluster.DefaultVNodes). All nodes must agree on it.
	VNodes int
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
	// wraps; nil means the default transport.
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

// defaultJobHistory is the settled-job retention bound when Options leaves
// JobHistory unset. Without a bound a long-running service would pin every
// grid and Result it ever served.
const defaultJobHistory = 1024

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
// is unset: proxy hops, replication pushes, and anti-entropy fetches. It
// is the historical replicaRPCTimeout value — generous enough for a slow
// replica, finite so a gray one cannot pin goroutines forever.
const defaultProxyTimeout = 10 * time.Second

// task is one schedulable unit: scenario i of job j.
type task struct {
	j *Job
	i int
}

// Manager owns the admission layer, the shared worker pool, the job table,
// the tiered result cache and (in cluster mode) the membership table. It is
// split in two along the submit path:
//
//   - Admission (this type): resolve the request to a tenant, enforce that
//     tenant's quotas (max queued scenarios, max concurrent jobs —
//     violations surface as ErrQuotaExceeded, HTTP 429), arm the job's
//     deadline, and register it in the job table. Rejection happens before
//     anything is queued, so an over-quota tenant can never occupy queue
//     positions that would delay anyone else.
//   - Scheduling (the sched package): weighted deficit round-robin across
//     tenants, strict priority classes within a tenant, and task-level
//     fair round-robin between a class's jobs — one scenario from each in
//     turn, so a huge grid cannot starve a small one submitted after it.
//     With no tenant config everything runs as the single anonymous
//     tenant, which collapses the policy to exactly the pre-tenant fair
//     round-robin ring.
//
// Each job has its own context; cancelling a job (or its deadline
// expiring) aborts its in-flight runs and settles its pending rows without
// disturbing other jobs.
//
// In cluster mode each fingerprint has one owning node on the placement
// ring. A scenario owned elsewhere is proxied to its owner (POST /v1/run)
// when that owner looks alive, and executed locally otherwise — the
// cluster degrades to correct-but-duplicated work, never to unavailability.
// All local executions funnel through a fingerprint-keyed singleflight, so
// the owner runs each fingerprint at most once no matter how many workers,
// jobs or proxy hops ask for it concurrently: cluster-wide exactly-once is
// routing (concentrate a fingerprint on its owner) plus this dedupe. The
// result cache and this dedupe are deliberately tenant-blind: results are
// keyed by scenario fingerprint alone, so identical work from different
// tenants is charged the admission of both but executed once.
type Manager struct {
	workers    int
	history    int
	vnodes     int
	replicas   int // replica-set size k; 1 means unreplicated
	cache      *Cache
	membership *cluster.Membership // nil when standalone
	proxyHTTP  *http.Client
	log        *slog.Logger
	registry   *telemetry.Registry
	tracer     *telemetry.Tracer
	met        *metrics
	executions atomic.Uint64
	proxied    atomic.Uint64
	settled    atomic.Int64 // retained settled jobs; guards prune scans

	// Replication and anti-entropy state (cluster mode with Replicas > 1).
	// steals counts owned-elsewhere scenarios executed locally because the
	// owner's gossiped backlog exceeded ours; replicaHits counts scenarios
	// served by proxying to a non-owner replica; aeRepairs counts envelopes
	// copied between replica disk tiers by the anti-entropy pass.
	steals      atomic.Uint64
	replicaHits atomic.Uint64
	aeRepairs   atomic.Uint64
	aeInterval  time.Duration
	aeKick      chan string   // rejoin-triggered targeted syncs
	auxStop     chan struct{} // stops the replication + anti-entropy loops
	auxStopOnce sync.Once
	auxWG       sync.WaitGroup
	replq       chan replItem

	// Gray-failure resilience state. proxyTimeout bounds every replica
	// RPC; hedgeAfter is the hedged-read delay (0: hedging off); hedges
	// and hedgeWins count fired hedges and hedges whose response was
	// adopted. shedQueueDepth / shedOpenBreakers arm admission
	// brownout, and shed counts submissions rejected by it.
	proxyTimeout     time.Duration
	hedgeAfter       time.Duration
	hedges           atomic.Uint64
	hedgeWins        atomic.Uint64
	shedQueueDepth   int
	shedOpenBreakers int
	shed             atomic.Uint64

	// Admission state: tenants by name and by API key (both immutable
	// after newManager; tenantList preserves declaration order for stats),
	// plus the count of rejected credentials. byKey is empty on a node
	// with no tenant config — every request is then the anonymous tenant.
	tenants      map[string]*tenantState
	byKey        map[string]*tenantState
	tenantList   []*tenantState
	unauthorized atomic.Uint64

	// runners pools engine Runners for the singleflight execution path: a
	// Runner is single-goroutine state, so each execution checks one out
	// for its duration. Pooling keeps the engine's zero-alloc reuse across
	// consecutive runs without pinning one Runner per worker.
	runners sync.Pool

	// group deduplicates concurrent executions of one fingerprint (a pool
	// worker and a /v1/run proxy hop, or two jobs sharing grid cells).
	group *rescache.Group[dynring.Result]

	mu     sync.Mutex
	cond   *sync.Cond // wakes idle workers on submit/close
	jobs   map[string]*Job
	order  []*Job                 // submission order, for settled-job eviction
	sched  *sched.Scheduler[*Job] // dispatch policy; driven under mu
	nextID int
	closed bool

	wg sync.WaitGroup
}

// New starts a manager and its worker pool. The only construction failure
// is an unusable DiskDir. Callers must Close it.
func New(opts Options) (*Manager, error) {
	m, err := newManager(opts)
	if err != nil {
		return nil, err
	}
	if m.membership != nil {
		m.membership.Start()
		// Tell peers we are (back) up so any that hold us dead or left
		// re-probe immediately instead of waiting out their backoff.
		go m.membership.AnnounceJoin(leaveTimeout)
		if m.replicas > 1 {
			m.auxWG.Add(1)
			go func() {
				defer m.auxWG.Done()
				m.replicationLoop()
			}()
			if m.cache.disk != nil {
				m.auxWG.Add(1)
				go func() {
					defer m.auxWG.Done()
					m.antiEntropyLoop()
				}()
			}
		}
	}
	m.wg.Add(m.workers)
	for w := 0; w < m.workers; w++ {
		go func() {
			defer m.wg.Done()
			m.work()
		}()
	}
	return m, nil
}

// newManager builds a manager without starting workers or probes; tests
// use it to drive the scheduler by hand.
func newManager(opts Options) (*Manager, error) {
	base := opts.Logger
	if base == nil {
		base = slog.New(slog.DiscardHandler)
	}
	if err := ValidateTenants(opts.Tenants); err != nil {
		return nil, err
	}
	m := &Manager{
		workers:  sweep.Workers(opts.Workers, 0),
		history:  opts.JobHistory,
		log:      base.With("component", "service"),
		registry: telemetry.NewRegistry(),
		tracer:   telemetry.NewTracer(0, 0),
		jobs:     make(map[string]*Job),
		sched:    sched.New[*Job](),
		tenants:  make(map[string]*tenantState),
		byKey:    make(map[string]*tenantState),
	}
	if m.history <= 0 {
		m.history = defaultJobHistory
	}
	// The anonymous tenant always exists (quota-free, weight 1): it is the
	// only tenant when no config is given, and the fallback principal for
	// in-process submissions (tests, library callers) when one is. Configured
	// tenants are registered after it, in declaration order.
	anon := &tenantState{cfg: TenantConfig{Name: AnonymousTenant, Weight: 1}}
	m.tenants[AnonymousTenant] = anon
	m.sched.AddTenant(AnonymousTenant, 1)
	for _, tc := range opts.Tenants {
		ts := &tenantState{cfg: tc}
		m.tenants[tc.Name] = ts
		m.byKey[tc.Key] = ts
		m.tenantList = append(m.tenantList, ts)
		m.sched.AddTenant(tc.Name, tc.Weight)
	}
	// The durable tier's rescache layer speaks printf; adapt it onto the
	// structured logger — its lines are rare (corrupt entries at boot).
	cacheLog := base.With("component", "cache")
	cache, err := NewTieredCache(opts.CacheSize, opts.DiskDir, func(format string, args ...any) {
		cacheLog.Warn(fmt.Sprintf(format, args...))
	})
	if err != nil {
		return nil, err
	}
	m.cache = cache
	m.group = rescache.NewGroup[dynring.Result](cache, dynring.Result.Clone)
	m.runners.New = func() any { return dynring.NewRunner() }
	m.shedQueueDepth = opts.ShedQueueDepth
	m.shedOpenBreakers = opts.ShedOpenBreakers
	m.proxyTimeout = opts.Cluster.ProxyTimeout
	if m.proxyTimeout <= 0 {
		m.proxyTimeout = defaultProxyTimeout
	}
	if opts.Cluster.Self != "" {
		m.vnodes = opts.Cluster.VNodes
		if m.vnodes <= 0 {
			m.vnodes = cluster.DefaultVNodes
		}
		m.replicas = opts.Cluster.Replicas
		if m.replicas < 1 {
			m.replicas = 1
		}
		m.aeInterval = opts.Cluster.AntiEntropyInterval
		if m.aeInterval <= 0 {
			m.aeInterval = defaultAntiEntropyInterval
		}
		m.hedgeAfter = opts.Cluster.HedgeAfter
		m.proxyHTTP = &http.Client{Transport: opts.Cluster.Transport}
		m.aeKick = make(chan string, 8)
		m.auxStop = make(chan struct{})
		m.replq = make(chan replItem, replicateQueueDepth)
		m.membership = cluster.NewMembership(cluster.Config{
			Self:          opts.Cluster.Self,
			Peers:         opts.Cluster.Peers,
			VNodes:        m.vnodes,
			ProbeInterval: opts.Cluster.ProbeInterval,
			ProbeTimeout:  opts.Cluster.ProbeTimeout,
			HTTPClient:    m.proxyHTTP,
			Logger:        base.With("component", "cluster"),
			// The breaker's slow-RTT cutoff is the per-hop proxy budget: a
			// peer whose cheap health probe takes longer than we would wait
			// for real work is gray by definition.
			Breaker: cluster.BreakerConfig{
				Threshold: opts.Cluster.BreakerThreshold,
				Cooldown:  opts.Cluster.BreakerCooldown,
				SlowRTT:   m.proxyTimeout,
			},
			// A peer returning from the dead (never a transient flap — the
			// membership fires this once per recovery) gets an immediate
			// targeted anti-entropy sync, which is how envelopes stolen or
			// re-homed while it was down land back on its disk tier.
			OnRejoin: func(url string) {
				select {
				case m.aeKick <- url:
				default: // a sync toward this peer is already pending
				}
			},
		})
	} else {
		m.replicas = 1
	}
	m.met = newMetrics(m)
	m.cond = sync.NewCond(&m.mu)
	return m, nil
}

// Registry exposes the node's metric registry; NewHandler serves it at
// GET /metrics, and the metricscheck lint renders it to validate names.
func (m *Manager) Registry() *telemetry.Registry { return m.registry }

// NodeName is the identity spans carry: the advertised cluster URL, or
// "local" for a standalone service.
func (m *Manager) NodeName() string {
	if m.membership != nil {
		return m.membership.Self()
	}
	return "local"
}

// Workers is the shared pool size.
func (m *Manager) Workers() int { return m.workers }

// Close shuts the node down in dependency order: announce the graceful
// leave and stop probing (so peers stop proxying here), cancel every job
// and stop the workers, then flush the durable cache tier — the -drain
// guarantee that every computed result is on disk before exit.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	m.sched = sched.New[*Job]() // drop undispatched work; workers exit on closed
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	if m.membership != nil {
		// Replication and anti-entropy use the membership; stop them first.
		m.auxStopOnce.Do(func() { close(m.auxStop) })
		m.auxWG.Wait()
		m.membership.Leave(leaveTimeout)
		m.membership.Close()
	}
	for _, j := range jobs {
		j.cancel()
		j.markCancelled()
	}
	m.wg.Wait()
	m.cache.Close()
}

// Submit expands and fingerprints the grid (axis form or explicit-list
// form), registers the job and queues it on the shared pool. Expansion,
// validation and fingerprint errors are reported here, before anything
// runs. The job gets a fresh trace ID and runs as the anonymous tenant at
// default priority; callers carrying a trace, tenant, priority or deadline
// use SubmitJob.
func (m *Manager) Submit(spec dynring.SweepSpec) (*Job, error) {
	return m.SubmitJob(spec, SubmitOptions{})
}

// SubmitOptions qualify one submission. The zero value reproduces the
// historical Submit: fresh trace, anonymous tenant, priority 0, no
// deadline.
type SubmitOptions struct {
	// TraceID binds the sweep's spans — locally and on the nodes its
	// scenarios are proxied to — to an existing trace; empty means a fresh
	// one.
	TraceID string
	// Tenant is the admission principal (resolved by the HTTP layer from
	// the request's API key); empty means AnonymousTenant. An undeclared
	// name is rejected with ErrUnknownTenant.
	Tenant string
	// Priority orders this job against the tenant's other jobs: higher is
	// served strictly first.
	Priority int
	// Deadline, when positive, bounds the job's lifetime: if it has not
	// settled after this duration it is cancelled exactly as DELETE would,
	// with rows settling as context.DeadlineExceeded.
	Deadline time.Duration
}

// SubmitJob is the full submission path: expand and fingerprint the grid,
// pass the brownout gate (ErrOverloaded — HTTP 503 — when the node is
// shedding and this submission is sheddable), admit it against the
// tenant's quotas (ErrQuotaExceeded — HTTP 429 — when over), register the
// job, arm its deadline and queue it on the tenant's scheduler lane.
func (m *Manager) SubmitJob(spec dynring.SweepSpec, opts SubmitOptions) (*Job, error) {
	scenarios, err := spec.ScenarioList()
	if err != nil {
		return nil, err
	}
	fps := make([]string, len(scenarios))
	for i, sc := range scenarios {
		if fps[i], err = sc.Fingerprint(); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
	}
	traceID := opts.TraceID
	if traceID == "" {
		traceID = telemetry.NewTraceID()
	}
	tenantName := opts.Tenant
	if tenantName == "" {
		tenantName = AnonymousTenant
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	ts, ok := m.tenants[tenantName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, tenantName)
	}
	if err := m.shedLocked(ts, opts.Priority, fps); err != nil {
		return nil, err
	}
	if err := m.admitLocked(ts, len(scenarios)); err != nil {
		return nil, err
	}
	m.nextID++
	j := newJob(fmt.Sprintf("sw-%d", m.nextID), traceID, scenarios, fps, time.Now())
	j.Tenant = ts.cfg.Name
	j.Priority = opts.Priority
	ts.admitted.Add(1)
	ts.running.Add(1)
	// onSettle runs under j.mu (never m.mu): atomics and a timer stop only.
	j.onSettle = func() {
		m.settled.Add(1)
		ts.running.Add(-1)
		if j.deadlineTimer != nil {
			j.deadlineTimer.Stop()
		}
	}
	m.jobs[j.ID] = j
	m.order = append(m.order, j)
	m.tracer.Register(j.ID, traceID)
	m.pruneLocked()
	if j.Total() == 0 {
		// Unreachable through Sweep expansion (empty axes collapse to the
		// base scenario), but an empty job must never enter the scheduler.
		j.state = StateDone
		m.settled.Add(1)
		ts.running.Add(-1)
	} else {
		if opts.Deadline > 0 {
			j.deadline = j.created.Add(opts.Deadline)
			// Armed before the job is dispatchable, so the timer exists by
			// the time any row can settle (onSettle stops it).
			j.deadlineTimer = time.AfterFunc(opts.Deadline, func() { m.expireJob(j, ts) })
		}
		m.sched.Enqueue(ts.cfg.Name, j, j.Total(), opts.Priority)
		m.cond.Broadcast()
	}
	m.log.Info("sweep submitted", "job", j.ID, "trace", traceID,
		"tenant", ts.cfg.Name, "priority", opts.Priority, "scenarios", j.Total())
	return j, nil
}

// expireJob is the deadline path: identical to Cancel except rows settle
// with context.DeadlineExceeded and the tenant's expiration counter ticks.
func (m *Manager) expireJob(j *Job, ts *tenantState) {
	m.mu.Lock()
	m.sched.Remove(j)
	m.mu.Unlock()
	j.cancel()
	if j.settleAbort(context.DeadlineExceeded, func() { ts.expired.Add(1) }) {
		m.log.Warn("sweep deadline expired", "job", j.ID, "tenant", ts.cfg.Name)
	}
}

// Trace snapshots a job's trace view as the wire document, or ok=false when
// the sweep is unknown (never submitted, or evicted with its job).
func (m *Manager) Trace(id string) (dynring.SweepTrace, bool) {
	traceID, spans, dropped, ok := m.tracer.Snapshot(id)
	if !ok {
		return dynring.SweepTrace{}, false
	}
	out := dynring.SweepTrace{
		SweepID: id,
		TraceID: traceID,
		Spans:   make([]dynring.TraceSpan, len(spans)),
		Dropped: dropped,
	}
	for i, s := range spans {
		out.Spans[i] = dynring.TraceSpan{
			Index:      s.Index,
			Name:       s.Name,
			Node:       s.Node,
			Kind:       s.Kind,
			EnqueuedAt: s.Enqueued,
			StartedAt:  s.Started,
			FinishedAt: s.Finished,
			Error:      s.Err,
		}
	}
	return out, true
}

// Job looks up a job by ID.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel cancels a job: its unscheduled scenarios are dropped from the
// scheduler, in-flight runs abort through the job context, and pending
// rows settle with context.Canceled. Cancelling a settled job is a no-op.
// Returns false when the ID is unknown.
func (m *Manager) Cancel(id string) bool {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return false
	}
	m.sched.Remove(j)
	m.mu.Unlock()

	j.cancel()
	j.markCancelled()
	return true
}

// pruneLocked evicts the oldest settled jobs beyond the history bound, so
// the job table (grids + results) cannot grow without limit on a
// long-running service. Running jobs are always retained. The settled
// counter makes the common case (under the bound) a single atomic load;
// the eviction scan only runs when there is something to evict. Callers
// hold m.mu.
func (m *Manager) pruneLocked() {
	if m.settled.Load() <= int64(m.history) {
		return
	}
	keep := m.order[:0]
	for _, j := range m.order {
		if m.settled.Load() > int64(m.history) && j.Status().State != "running" {
			delete(m.jobs, j.ID)
			m.tracer.Drop(j.ID)
			m.settled.Add(-1)
			continue
		}
		keep = append(keep, j)
	}
	// Zero the tail so evicted jobs are collectable.
	for i := len(keep); i < len(m.order); i++ {
		m.order[i] = nil
	}
	m.order = keep
}

// ClusterStatus snapshots this node's view of the cluster as the
// /v1/cluster wire document. A standalone node reports Enabled false with
// an empty peer list.
func (m *Manager) ClusterStatus() dynring.ClusterStatus {
	if m.membership == nil {
		return dynring.ClusterStatus{Peers: []dynring.PeerStatus{}}
	}
	snap := m.membership.Snapshot()
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
			peers[i].QueueDepth = m.backlog()
		} else {
			// This node's breaker verdict for the peer; a non-closed one is
			// what the State field reports as "degraded".
			peers[i].Breaker = p.Breaker.String()
		}
	}
	return dynring.ClusterStatus{
		Enabled:  true,
		Self:     m.membership.Self(),
		VNodes:   m.vnodes,
		Replicas: m.replicas,
		Peers:    peers,
	}
}

// PeerLeft records a peer's graceful-leave announcement (POST
// /v1/cluster/leave). No-op when standalone.
func (m *Manager) PeerLeft(url string) {
	if m.membership != nil {
		m.membership.MarkLeft(url)
	}
}

// PeerJoined records a peer's join announcement (POST /v1/cluster/join):
// new and left peers re-enter the ring, dead ones are re-probed
// immediately. No-op when standalone.
func (m *Manager) PeerJoined(url string) {
	if m.membership != nil {
		m.membership.Rejoin(url)
	}
}

// Stats snapshots the service counters.
func (m *Manager) Stats() dynring.ServiceStats {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	queue := []dynring.JobQueueStat{}
	for _, qs := range m.sched.Snapshot() {
		queue = append(queue, dynring.JobQueueStat{
			ID:       qs.Job.ID,
			Tenant:   qs.Tenant,
			Priority: qs.Priority,
			Pending:  qs.Pending,
		})
	}
	var tenants []dynring.TenantStat
	for _, ts := range m.tenantList {
		tenants = append(tenants, dynring.TenantStat{
			Name:                ts.cfg.Name,
			Weight:              ts.cfg.Weight,
			QueuedScenarios:     m.sched.Backlog(ts.cfg.Name),
			RunningJobs:         ts.running.Load(),
			Admitted:            ts.admitted.Load(),
			Rejected:            ts.rejectedQueue.Load() + ts.rejectedJobs.Load(),
			ServedTasks:         ts.served.Load(),
			DeadlineExpirations: ts.expired.Load(),
		})
	}
	m.mu.Unlock()
	st := dynring.ServiceStats{
		Jobs:       len(jobs),
		Workers:    m.workers,
		Executions: m.executions.Load(),
		Proxied:    m.proxied.Load(),
		Cache:      m.cache.Stats(),
		HitRatio:   m.cache.HitRatio(),
		Disk:       m.cache.DiskStats(),
		Queue:      queue,
		Tenants:    tenants,
	}
	if m.membership != nil {
		cs := m.ClusterStatus()
		st.Cluster = &cs
	}
	for _, j := range jobs {
		if j.Status().State == "running" {
			st.ActiveJobs++
		}
	}
	return st
}

// work is one pool worker: pull the next task in round-robin order, run it,
// repeat until Close.
func (m *Manager) work() {
	for {
		t, ok := m.nextTask()
		if !ok {
			return
		}
		m.runTask(t)
	}
}

// nextTask blocks until a task is schedulable (or the manager closes) and
// claims it from the scheduler, crediting the serving tenant. All policy —
// tenant weights, priorities, per-class fairness — lives in sched; this is
// just the blocking shim between the worker pool and that pure structure.
func (m *Manager) nextTask() (task, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.closed {
			return task{}, false
		}
		if tk, ok := m.sched.Next(); ok {
			if ts, ok := m.tenants[tk.Job.Tenant]; ok {
				ts.served.Add(1)
			}
			return task{j: tk.Job, i: tk.Index}, true
		}
		m.cond.Wait()
	}
}

// runTask settles one scenario: cache hit, proxy to the fingerprint's
// owner (cluster mode, owner elsewhere and alive), or local execution.
// A failed proxy marks the owner failed for the prober and falls back to
// local execution — a dying peer costs one extra hop, never the sweep.
// Every settle records one span in the sweep's trace (proxied scenarios
// record two: the owner's span, adopted from the hop response, plus this
// node's hop record).
func (m *Manager) runTask(t task) {
	j, i := t.j, t.i
	start := time.Now()
	m.met.queueWait.Observe(start.Sub(j.created).Seconds())
	span := func(kind string, err error) {
		s := telemetry.Span{
			Index:    i,
			Name:     j.scenarios[i].Name,
			Node:     m.NodeName(),
			Kind:     kind,
			Enqueued: j.created,
			Started:  start,
			Finished: time.Now(),
		}
		if err != nil {
			s.Kind = "error"
			s.Err = err.Error()
		}
		m.tracer.Record(j.ID, s)
	}
	if err := j.ctx.Err(); err != nil {
		j.setRow(i, Row{Err: err})
		span("error", err)
		return
	}
	fp := j.fps[i]
	rt := m.routeFor(fp)
	if len(rt.targets) > 0 {
		// Serve from our own tiers before hopping: adopted, replicated and
		// previously proxied results answer repeats locally. (Standalone
		// nodes skip straight to ExecuteLocal, whose own probe is then the
		// only lookup — each scheduled scenario counts one hit or miss.)
		if res, ok := m.cache.Get(fp); ok {
			j.setRow(i, Row{Cached: true, Result: res})
			span("cache-hit", nil)
			return
		}
		if rr, target, ok := m.proxyHedged(j, i, rt); ok {
			if target != rt.owner {
				m.replicaHits.Add(1)
			}
			// Adopt the owner's span first: under one trace ID the sweep's
			// trace then shows both the hop (this node) and the work (the
			// owner), which is the cross-node view /v1/sweeps/{id}/trace
			// exists for.
			if rr.Span != nil {
				m.tracer.Record(j.ID, telemetry.Span{
					Index:    i,
					Name:     j.scenarios[i].Name,
					Node:     rr.Span.Node,
					Kind:     rr.Span.Kind,
					Started:  rr.Span.StartedAt,
					Finished: rr.Span.FinishedAt,
					Err:      rr.Span.Error,
				})
			}
			if rr.Error != "" {
				j.setRow(i, Row{Err: errors.New(rr.Error)})
				span("error", errors.New(rr.Error))
				return
			}
			res := *rr.Result
			// Adopt the owner's result into our own tiers: the fingerprint
			// contract makes cross-node reuse safe, and the local copy
			// serves repeats without another hop.
			m.cache.Put(fp, res)
			j.setRow(i, Row{Cached: rr.Cached, Result: res})
			span("proxied", nil)
			return
		}
	}
	res, cached, err := m.ExecuteLocal(j.ctx, j.scenarios[i], fp)
	if rt.steal && err == nil && !cached {
		m.steals.Add(1)
	}
	j.setRow(i, Row{Cached: cached, Result: res, Err: err})
	switch {
	case err != nil:
		span("error", err)
	case cached:
		span("cache-hit", nil)
	default:
		span("executed", nil)
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
// standalone mode, we own it (or are stealing it), or no replica is alive
// (placement never moves on health; availability comes from the local
// fallback). When this node is in fp's replica set and the owner's
// gossiped queue depth exceeds our own by stealThreshold, the scenario is
// stolen: executed locally even though the owner looks alive, with the
// envelope replicated back to the owner's disk tier by the usual
// replication push (or, if the owner dies before the push lands, by
// anti-entropy on its recovery).
func (m *Manager) routeFor(fp string) route {
	if m.membership == nil || fp == "" {
		return route{}
	}
	owners := m.membership.Ring().Owners(fp, m.replicas)
	self := m.membership.Self()
	if len(owners) == 0 || owners[0] == self {
		return route{}
	}
	rt := route{owner: owners[0]}
	selfReplica := false
	for _, o := range owners[1:] {
		if o == self {
			selfReplica = true
		}
	}
	if selfReplica && m.membership.Alive(rt.owner) {
		if depth, ok := m.membership.QueueDepth(rt.owner); ok && depth >= m.backlog()+stealThreshold {
			rt.steal = true
			return rt
		}
	}
	for _, o := range owners {
		// Routable, not Alive: an alive peer with an open breaker is gray,
		// and the whole point of the breaker is to route to the next
		// replica immediately instead of waiting out a proxy timeout
		// against it.
		if o != self && m.membership.Routable(o) {
			rt.targets = append(rt.targets, o)
		}
	}
	return rt
}

// backlog is this node's undispatched scenario count — the queue depth it
// gossips to peers and compares against theirs for steal decisions.
func (m *Manager) backlog() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sched.Len()
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
func (m *Manager) proxyHedged(j *Job, i int, rt route) (dynring.RunResponse, string, bool) {
	ctx, cancel := context.WithCancel(j.ctx)
	defer cancel()
	results := make(chan hopResult, len(rt.targets))
	launched := 0
	launch := func(hedge bool) {
		target := rt.targets[launched]
		launched++
		go func() {
			rr, ok := m.proxyRun(ctx, target, j.scenarios[i], j.fps[i], j.traceID, j.Tenant, j.deadline)
			results <- hopResult{rr: rr, ok: ok, target: target, hedge: hedge}
		}()
	}
	launch(false)
	pending := 1
	var hedgeC <-chan time.Time
	if m.hedgeAfter > 0 && len(rt.targets) > 1 {
		t := time.NewTimer(m.hedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	for pending > 0 {
		select {
		case <-hedgeC:
			hedgeC = nil
			if launched < len(rt.targets) {
				m.hedges.Add(1)
				launch(true)
				pending++
			}
		case r := <-results:
			pending--
			if r.ok {
				if r.hedge {
					m.hedgeWins.Add(1)
				}
				// Cancel the losing attempt before adoption: its response,
				// if any, is discarded unread, so exactly one result is
				// ever adopted for this row.
				cancel()
				return r.rr, r.target, true
			}
			if j.ctx.Err() != nil {
				return dynring.RunResponse{}, "", false
			}
			if pending == 0 && launched < len(rt.targets) {
				// Plain failover: the attempt failed on its own (the peer,
				// not our cancellation) — try the next replica.
				launch(false)
				pending++
			}
		}
	}
	return dynring.RunResponse{}, "", false
}

// proxyRun forwards one scenario to target via POST /v1/run, carrying the
// sweep's trace ID in TraceHeader so the target's span lands in the same
// trace, and the originating tenant's API key so the target accounts the
// execution to that tenant rather than to the proxying node. Every hop is
// bounded: its context times out after min(ProxyTimeout, the job's
// remaining deadline budget), and that remaining budget is forwarded in
// DeadlineHeader so the target bounds its own execution too — the
// deadline a client set on POST /v1/sweeps follows the work across every
// hop it takes. The second return is false when the caller should fall
// back (next replica, then local execution): the scenario has no wire
// form (custom factory), the budget is already spent, or the target
// failed — a genuine failure also feeds the membership's failure evidence
// (and through it the peer's breaker), while a hop cancelled from our own
// side (a hedge lost its race, the job was cancelled) is not evidence
// against the peer and feeds nothing. Successful hops report their RTT to
// the breaker. Retries are disabled on the hop: the local fallback IS the
// retry, and it cannot lose work. A tenant
// the target does not know (config skew across the cluster) is rejected
// there with 401, which lands here as a failed hop and degrades to the
// same fallback.
func (m *Manager) proxyRun(ctx context.Context, target string, sc dynring.Scenario, fp, traceID, tenant string, deadline time.Time) (dynring.RunResponse, bool) {
	sp, err := sc.WireSpec()
	if err != nil {
		return dynring.RunResponse{}, false
	}
	timeout := m.proxyTimeout
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
	c := &dynring.Client{BaseURL: target, HTTPClient: m.proxyHTTP, Retries: -1, TenantKey: m.TenantKey(tenant)}
	hop := time.Now()
	rr, err := c.RunScenario(hopCtx, sp, dynring.WithTrace(traceID), dynring.WithDeadline(budget))
	rtt := time.Since(hop)
	if err != nil {
		if ctx.Err() != nil {
			// Our side ended the hop (hedge race decided, job cancelled or
			// expired). The peer did nothing wrong: no failure evidence, no
			// fallback noise.
			return dynring.RunResponse{}, false
		}
		m.membership.MarkFailed(target, err)
		m.met.proxyFallbacks.Inc()
		m.log.Warn("proxy failed, executing locally",
			"fingerprint", fp, "target", target, "trace", traceID, "error", err)
		return dynring.RunResponse{}, false
	}
	if rr.Error == "" && rr.Result == nil {
		m.met.proxyFallbacks.Inc()
		m.log.Warn("proxy returned no result, executing locally",
			"fingerprint", fp, "target", target, "trace", traceID)
		return dynring.RunResponse{}, false
	}
	m.membership.ObserveRTT(target, rtt)
	m.met.proxyRTT.Observe(rtt.Seconds())
	m.proxied.Add(1)
	return rr, true
}

// ExecuteLocal runs one scenario on this node — cache tiers first, then an
// actual engine run — deduplicating concurrent executions of the same
// fingerprint through the manager's rescache.Group. It is the execution
// primitive shared by the worker pool and the /v1/run handler; the handler
// calls it on its own goroutine precisely so proxy hops never occupy pool
// workers (two nodes whose pools were full of proxy hops to each other
// would deadlock).
//
// The returned bool reports the result was served without executing here
// (a cache hit, or a concurrent execution's result taken from its flight).
// Failures are never cached: validation errors are caught at Submit, so
// what remains — cancellation, panic — must not poison later runs of the
// fingerprint.
func (m *Manager) ExecuteLocal(ctx context.Context, sc dynring.Scenario, fp string) (dynring.Result, bool, error) {
	if fp == "" {
		res, err := m.execute(ctx, sc)
		return res, false, err
	}
	res, shared, err := m.group.Do(ctx, fp, func() (dynring.Result, error) { return m.execute(ctx, sc) })
	if !shared && err == nil {
		// Push the completed envelope toward fp's other replicas; the
		// replication loop fans it out to each replica's disk tier through
		// that node's own async write queue.
		m.replicate(fp, res)
	}
	return res, shared, err
}

// execute performs one engine run with a pooled Runner, converting panics
// (an adversary parameter only checkable at run time, a buggy custom
// strategy) into errors so one bad scenario can never take down the daemon
// and every other client's job. A panicked Runner is abandoned to the GC
// rather than repooled.
func (m *Manager) execute(ctx context.Context, sc dynring.Scenario) (res dynring.Result, err error) {
	runner := m.runners.Get().(*dynring.Runner)
	start := time.Now()
	defer func() {
		m.met.runSeconds.Observe(time.Since(start).Seconds())
		if r := recover(); r != nil {
			err = fmt.Errorf("scenario panicked: %v", r)
			return
		}
		// Read the stats before Put: once pooled, another worker may take
		// the Runner and overwrite them.
		stats := runner.LastStats()
		m.runners.Put(runner)
		if err == nil {
			m.met.observeRun(stats)
		}
	}()
	m.executions.Add(1)
	return runner.Run(ctx, sc)
}
