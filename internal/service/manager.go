package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"dynring"
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

// maxSweepRows bounds the rows one submission may expand to. It is checked
// from the spec's axis lengths before expansion: a 13 KB spec of 1500
// sizes × 1500 seeds would otherwise expand to 2.25 M scenarios (about
// 750 MB) before admission saw it.
const maxSweepRows = 1 << 16

// defaultJobHistory is the settled-job retention bound when Options leaves
// JobHistory unset. Without a bound a long-running service would pin every
// grid and Result it ever served.
const defaultJobHistory = 1024

// task is one schedulable unit: scenario i of job j.
type task struct {
	j *Job
	i int
}

// Manager owns the admission layer, the shared worker pool, the job table,
// the tiered result cache and the tracer. It is split in two along the
// submit path:
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
// In cluster mode the Manager also holds a router (router.go), which owns
// placement, the proxy hop, replication and anti-entropy; on a standalone
// node the router is nil. Each fingerprint has one owning node on the
// placement ring. A scenario owned elsewhere is proxied to its owner (POST
// /v1/run) when that owner looks alive, and executed locally otherwise —
// the cluster degrades to correct-but-duplicated work, never to
// unavailability. All local executions funnel through a fingerprint-keyed
// singleflight, so the owner runs each fingerprint at most once no matter
// how many workers, jobs or proxy hops ask for it concurrently:
// cluster-wide exactly-once is routing (concentrate a fingerprint on its
// owner) plus this dedupe. The result cache and this dedupe are
// deliberately tenant-blind: results are keyed by scenario fingerprint
// alone, so identical work from different tenants is charged the admission
// of both but executed once.
type Manager struct {
	workers    int
	history    int
	cache      *Cache
	router     *router // nil when standalone
	log        *slog.Logger
	registry   *telemetry.Registry
	tracer     *telemetry.Tracer
	met        *metrics
	executions atomic.Uint64
	settled    atomic.Int64 // retained settled jobs; guards prune scans

	// shedQueueDepth / shedOpenBreakers arm admission brownout, and shed
	// counts submissions rejected by it.
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
	if m.router != nil {
		m.router.start()
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
	if opts.Cluster.Self != "" {
		m.router = newRouter(opts.Cluster, m.workers, base, cache, m.backlog, m.TenantKey)
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
	if m.router != nil {
		return m.router.membership.Self()
	}
	return "local"
}

// Workers is the shared pool size.
func (m *Manager) Workers() int { return m.workers }

// Close shuts the node down in dependency order: announce the graceful
// leave and stop probing (so peers stop proxying here), cancel every job
// and stop the workers, flush the durable cache tier — the -drain
// guarantee that every computed result is on disk before exit — then
// close the idle peer connections.
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
	if r := m.router; r != nil {
		r.close()
		// Deferred past the workers' exit: a hop still in flight may yet
		// park a connection.
		defer r.http.CloseIdleConnections()
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

// SubmitJob is the full submission path: bound the grid's row count
// (maxSweepRows, counted before expansion), expand and fingerprint it,
// pass the brownout gate (ErrOverloaded — HTTP 503 — when the node is
// shedding and this submission is sheddable), admit it against the
// tenant's quotas (ErrQuotaExceeded — HTTP 429 — when over), register the
// job, arm its deadline and queue it on the tenant's scheduler lane.
func (m *Manager) SubmitJob(spec dynring.SweepSpec, opts SubmitOptions) (*Job, error) {
	if sweepRows(spec) > maxSweepRows {
		return nil, fmt.Errorf("service: sweep expands to more than %d rows; submit it in parts", maxSweepRows)
	}
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

// sweepRows counts the rows spec expands to without expanding it: the
// explicit list's length, or the product of the axis lengths (an empty
// axis contributes the base value). The product saturates at
// maxSweepRows+1, so it cannot overflow.
func sweepRows(spec dynring.SweepSpec) int {
	if len(spec.Scenarios) > 0 {
		return len(spec.Scenarios)
	}
	rows := 1
	for _, n := range []int{len(spec.Algorithms), len(spec.Sizes), len(spec.Seeds), len(spec.Adversaries)} {
		if n > maxSweepRows/rows {
			return maxSweepRows + 1
		}
		rows *= max(n, 1)
	}
	return rows
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
	if m.router == nil {
		return dynring.ClusterStatus{Peers: []dynring.PeerStatus{}}
	}
	return m.router.status()
}

// AntiEntropyNow runs one synchronous anti-entropy pass against every
// alive peer and returns the number of envelopes repaired (pulled or
// pushed); 0 unless this node is a replicated cluster member. Tests and
// targeted recovery use it; the background loop runs the same pass on
// each tick.
func (m *Manager) AntiEntropyNow() int { return m.router.antiEntropyNow() }

// DurableEnvelope re-reads and validates one durable envelope for serving
// to a peer. A corrupt entry reports absent — never shipped.
func (m *Manager) DurableEnvelope(fp string) (dynring.Result, bool) {
	return m.cache.Durable(fp)
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
		Cache:      m.cache.Stats(),
		HitRatio:   m.cache.HitRatio(),
		Disk:       m.cache.DiskStats(),
		Queue:      queue,
		Tenants:    tenants,
	}
	if m.router != nil {
		st.Proxied = m.router.proxied.Load()
		cs := m.router.status()
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

// runTask settles one scenario and records its span in the sweep's trace
// (a proxied scenario records two: the owner's span, adopted from the hop
// response, plus this node's hop record).
func (m *Manager) runTask(t task) {
	j, i := t.j, t.i
	start := time.Now()
	m.met.queueWait.Observe(start.Sub(j.created).Seconds())
	row, kind := m.runRow(j, i)
	j.setRow(i, row)
	s := telemetry.Span{
		Index:    i,
		Name:     j.scenarios[i].Name,
		Node:     m.NodeName(),
		Kind:     kind,
		Enqueued: j.created,
		Started:  start,
		Finished: time.Now(),
	}
	if row.Err != nil {
		s.Kind = "error"
		s.Err = row.Err.Error()
	}
	m.tracer.Record(j.ID, s)
}

// runRow computes scenario i of j and names how it was served: a cache
// hit, a proxy hop to the fingerprint's owner or a replica (cluster mode,
// owner elsewhere and routable), or local execution. A failed proxy marks
// the owner failed for the prober and falls back to local execution — a
// dying peer costs one extra hop, never the sweep.
func (m *Manager) runRow(j *Job, i int) (Row, string) {
	if err := j.ctx.Err(); err != nil {
		return Row{Err: err}, "error"
	}
	fp := j.fps[i]
	var rt route
	if m.router != nil {
		rt = m.router.routeFor(fp)
	}
	if len(rt.targets) > 0 {
		// Serve from our own tiers before hopping: adopted, replicated and
		// previously proxied results answer repeats locally. (Standalone
		// nodes skip straight to ExecuteLocal, whose own probe is then the
		// only lookup — each scheduled scenario counts one hit or miss.)
		if res, ok := m.cache.Get(fp); ok {
			return Row{Cached: true, Result: res}, "cache-hit"
		}
		if rr, ok := m.router.proxyHedged(j, i, rt); ok {
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
				return Row{Err: errors.New(rr.Error)}, "error"
			}
			// Adopt the owner's result into our own tiers: the fingerprint
			// contract makes cross-node reuse safe, and the local copy
			// serves repeats without another hop.
			m.cache.Put(fp, *rr.Result)
			return Row{Cached: rr.Cached, Result: *rr.Result}, "proxied"
		}
	}
	res, cached, err := m.ExecuteLocal(j.ctx, j.scenarios[i], fp, "")
	if rt.steal && err == nil && !cached {
		m.router.steals.Add(1)
	}
	row := Row{Cached: cached, Result: res, Err: err}
	if cached {
		return row, "cache-hit"
	}
	return row, "executed"
}

// backlog is this node's undispatched scenario count — the queue depth it
// gossips to peers and compares against theirs for steal decisions.
func (m *Manager) backlog() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sched.Len()
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
//
// adopter is the advertised URL of a coordinator that proxied the scenario
// here and stores the result itself ("" for none); the replication push
// skips it.
func (m *Manager) ExecuteLocal(ctx context.Context, sc dynring.Scenario, fp, adopter string) (dynring.Result, bool, error) {
	if fp == "" {
		res, err := m.execute(ctx, sc)
		return res, false, err
	}
	res, shared, err := m.group.Do(ctx, fp, func() (dynring.Result, error) { return m.execute(ctx, sc) })
	if !shared && err == nil && m.router != nil {
		// Push the completed envelope toward fp's other replicas; the
		// replication loop fans it out to each replica's disk tier through
		// that node's own async write queue.
		m.router.replicate(fp, res, adopter)
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
