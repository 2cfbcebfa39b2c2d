package dynring

import (
	"context"
	"net/http"
	"time"
)

// This file is the client side of a sharded ringsimd cluster: the wire
// types of the /v1/cluster and /v1/run endpoints. Routing is the servers'
// business — any node accepts a sweep and sends each scenario to the node
// that owns its fingerprint — so a cluster sweep is a plain RunSweep (or
// RunSweepFunc) against any member.

// PeerStatus is one cluster member as reported by /v1/cluster (and
// /statsz). State is "alive", "suspect", "dead", "left" or "degraded" as
// seen by the reporting node; health is local opinion, placement is
// global.
type PeerStatus struct {
	URL  string `json:"url"`
	Self bool   `json:"self,omitempty"`
	// State is the probe-derived health state. Peers in any state except
	// "left" are ring members. "degraded" means alive-but-gray: the peer
	// answers probes but the reporting node's circuit breaker for it is
	// not closed (recent proxy errors, timeouts, or slow RTTs), so routed
	// work skips it until the breaker recovers.
	State string `json:"state"`
	// Breaker is the reporting node's circuit-breaker state for this peer:
	// "closed", "open" or "half_open". Absent for the self entry.
	Breaker string `json:"breaker,omitempty"`
	// Failures counts consecutive failed probes; LastSeen is the last
	// successful one (zero: never probed successfully).
	Failures int       `json:"failures,omitempty"`
	LastSeen time.Time `json:"last_seen,omitempty"`
	// QueueDepth is the peer's scheduler backlog: live for the reporting
	// node's self entry, last-gossiped for everyone else. Replicas compare
	// depths to decide when to steal an overloaded owner's work.
	QueueDepth int `json:"queue_depth,omitempty"`
}

// ClusterStatus is the /v1/cluster document: this node's view of the
// cluster. VNodes plus the non-left member URLs are sufficient to rebuild
// the placement ring exactly.
type ClusterStatus struct {
	// Enabled reports whether the node runs in cluster mode at all; a
	// standalone ringsimd serves Enabled false with an empty peer list.
	Enabled bool   `json:"enabled"`
	Self    string `json:"self,omitempty"`
	VNodes  int    `json:"vnodes,omitempty"`
	// Replicas is the cluster's replica-set size k (0 or 1: unreplicated).
	// A node serves a fingerprint from the rest of its replica set when
	// the owner is unroutable or fails the proxy hop.
	Replicas int          `json:"replicas,omitempty"`
	Peers    []PeerStatus `json:"peers"`
}

// RunRequest is the body of POST /v1/run: execute (or serve from cache)
// one scenario on the receiving node, synchronously. It is the cluster's
// internal proxy hop — a node that does not own a fingerprint forwards it
// here — but is equally usable by external callers for one-off scenarios.
type RunRequest struct {
	Scenario ScenarioSpec `json:"scenario"`
}

// RunResponse is the document POST /v1/run answers with.
type RunResponse struct {
	Fingerprint string `json:"fingerprint"`
	// Cached reports the result was served from the node's cache tiers
	// rather than executed now.
	Cached bool    `json:"cached"`
	Result *Result `json:"result,omitempty"`
	Error  string  `json:"error,omitempty"`
	// Span is the receiving node's span for this execution (how it served
	// the scenario, and under which node name). A proxying coordinator
	// adopts it into the sweep's trace, which is how one trace ID ends up
	// spanning multiple nodes.
	Span *TraceSpan `json:"span,omitempty"`
}

// ClusterStatus fetches the node's /v1/cluster document.
func (c *Client) ClusterStatus(ctx context.Context) (ClusterStatus, error) {
	var cs ClusterStatus
	err := c.do(ctx, http.MethodGet, "/v1/cluster", nil, &cs)
	return cs, err
}

// RunScenario executes one scenario on the node (or serves it from its
// caches) via POST /v1/run, synchronously. WithTrace records the node's
// span under the caller's trace, and WithDeadline bounds the node's
// execution by a remaining budget. The cluster proxy hop uses both, so a
// job's deadline follows the work across every node it visits, each hop
// forwarding only what is left of it. The hop also sends WithAdopter: the
// coordinator stores the result, so the owner does not push it back. A
// scenario's result is a function of its fingerprint, so repeating the
// request is harmless and it is always marked replayable: a pooled
// connection the node closed while idle costs a replay, not a failed call.
func (c *Client) RunScenario(ctx context.Context, spec ScenarioSpec, opts ...SubmitOption) (RunResponse, error) {
	var rr RunResponse
	so := applyOptions(opts)
	so.replayable = true
	err := c.doTraced(ctx, http.MethodPost, "/v1/run", so, RunRequest{Scenario: spec}, &rr)
	return rr, err
}
