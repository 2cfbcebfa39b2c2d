package service

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"dynring/internal/cluster"
)

const routeSelf = "http://self"

var routePeers = []string{"http://a", "http://b", "http://c"}

// newRouteTestRouter builds a router over a four-member, k=3 membership
// whose peers are all alive, each having gossiped the queue depth in
// depths. Probing is stopped once every peer is alive, so the table holds
// still while a case mutates it; breakers open on the first bad
// observation, and a successful call at 1s or slower counts as bad.
func newRouteTestRouter(t *testing.T, depths map[string]int) *router {
	t.Helper()
	ms := cluster.NewMembership(cluster.Config{
		Self:          routeSelf,
		Peers:         routePeers,
		ProbeInterval: time.Hour,
		ProbeTimeout:  time.Second,
		Probe: func(_ context.Context, url string) (cluster.ProbeReport, error) {
			return cluster.ProbeReport{QueueDepth: depths[url]}, nil
		},
		Breaker: cluster.BreakerConfig{Threshold: 1, Cooldown: time.Hour, SlowRTT: time.Second},
	})
	ms.Start()
	deadline := time.Now().Add(10 * time.Second)
	for _, p := range routePeers {
		for !ms.Alive(p) {
			if time.Now().After(deadline) {
				t.Fatalf("peer %s never came alive", p)
			}
			time.Sleep(time.Millisecond)
		}
	}
	ms.Close()
	return &router{membership: ms, replicas: 3, backlog: func() int { return 0 }}
}

// routeFingerprint returns a fingerprint whose k=3 replica set satisfies
// pred.
func routeFingerprint(t *testing.T, r *router, pred func(owners []string) bool) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		fp := fmt.Sprintf("fp-%d", i)
		if pred(r.membership.Ring().Owners(fp, r.replicas)) {
			return fp
		}
	}
	t.Fatal("no fingerprint has the wanted replica set")
	return ""
}

// TestRouteFor pins the routing decision table: where a row runs given
// the fingerprint's replica set, peer health, breakers and gossiped
// backlog.
func TestRouteFor(t *testing.T) {
	selfOwned := func(o []string) bool { return o[0] == routeSelf }
	elsewhere := func(o []string) bool { return !slices.Contains(o, routeSelf) }
	selfReplica := func(o []string) bool { return o[0] != routeSelf && slices.Contains(o[1:], routeSelf) }
	peersOf := func(owners []string) []string {
		return slices.DeleteFunc(slices.Clone(owners), func(o string) bool { return o == routeSelf })
	}
	cases := []struct {
		name   string
		depth  int // every peer's gossiped queue depth
		owners func([]string) bool
		prep   func(r *router, owners []string)
		want   func(owners []string) route
	}{
		{
			name:   "self-owned runs locally",
			owners: selfOwned,
			want:   func([]string) route { return route{} },
		},
		{
			name:   "alive owner first, then replicas in ring order",
			owners: elsewhere,
			want: func(o []string) route {
				return route{owner: o[0], targets: o}
			},
		},
		{
			name:   "owner with an open breaker puts the next replica first",
			owners: elsewhere,
			prep: func(r *router, o []string) {
				r.membership.MarkFailed(o[0], errors.New("refused"))
			},
			want: func(o []string) route {
				return route{owner: o[0], targets: o[1:]}
			},
		},
		{
			name:   "alive but slow owner is skipped by its breaker",
			owners: elsewhere,
			prep: func(r *router, o []string) {
				r.membership.ObserveRTT(o[0], 2*time.Second)
				if !r.membership.Alive(o[0]) {
					t.Fatal("a slow success must not demote the owner")
				}
			},
			want: func(o []string) route {
				return route{owner: o[0], targets: o[1:]}
			},
		},
		{
			name:   "overloaded owner is stolen by a replica",
			depth:  stealThreshold,
			owners: selfReplica,
			want: func(o []string) route {
				return route{owner: o[0], steal: true}
			},
		},
		{
			name:   "owner just under the steal threshold is proxied",
			depth:  stealThreshold - 1,
			owners: selfReplica,
			want: func(o []string) route {
				return route{owner: o[0], targets: peersOf(o)}
			},
		},
		{
			name:   "overloaded owner is not stolen by a non-replica",
			depth:  stealThreshold,
			owners: elsewhere,
			want: func(o []string) route {
				return route{owner: o[0], targets: o}
			},
		},
		{
			name:   "nothing routable runs locally",
			owners: elsewhere,
			prep: func(r *router, _ []string) {
				for _, p := range routePeers {
					r.membership.MarkFailed(p, errors.New("refused"))
				}
			},
			want: func(o []string) route { return route{owner: o[0]} },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			depths := map[string]int{}
			for _, p := range routePeers {
				depths[p] = tc.depth
			}
			r := newRouteTestRouter(t, depths)
			fp := routeFingerprint(t, r, tc.owners)
			owners := r.membership.Ring().Owners(fp, r.replicas)
			if tc.prep != nil {
				tc.prep(r, owners)
			}
			got, want := r.routeFor(fp), tc.want(owners)
			if got.owner != want.owner || got.steal != want.steal || !slices.Equal(got.targets, want.targets) {
				t.Fatalf("owners %v: routeFor = %+v, want %+v", owners, got, want)
			}
		})
	}
	if got := newRouteTestRouter(t, nil).routeFor(""); len(got.targets) != 0 || got.steal {
		t.Fatalf("an unfingerprinted row must run locally, got %+v", got)
	}
}
