package main

import (
	"context"
	"fmt"
	"time"

	"dynring"
)

// workload is one benchmark workload: how to set its system up, and the
// grids its layer replay feeds through the public functions. README.md
// gives each workload's reason.
type workload struct {
	name    string
	clients int
	// setup boots the system and warms it; warm is the setup repetition,
	// so every repetition uses fresh warm-up inputs.
	setup func(ctx context.Context, seed int64, warm int, log *spanLog) (system, error)
	// replay returns the grids of the layer replay: the first grids of the
	// workload's own stream.
	replay func(seed int64) []dynring.SweepSpec
}

// hotPool is the number of grids hot-repeat primes: 16×96 = 1536 rows,
// resident in the 4096-entry memory tier.
const hotPool = 16

// sampleEvery and sampleMax size the seeded re-execution sample: cheap
// rows are sampled densely, long-horizon rows sparsely.
const (
	sampleEvery = 32
	sampleMax   = 400
	longEvery   = 16
	longMax     = 24
)

var workloads = []workload{
	coldWorkload("cold-grid", 1),
	{
		name:    "hot-repeat",
		clients: 2,
		setup: func(ctx context.Context, seed int64, warm int, log *spanLog) (system, error) {
			pool := hotPoolGrids(seed)
			order := newStream(seed, "hot-order")
			r, err := setupRemote(ctx, 1, seed, warm, log, func(k int) (dynring.SweepSpec, int) {
				i := int(order.at(k) % hotPool)
				return pool[i], i
			})
			if err != nil {
				return nil, err
			}
			if err := r.prime(ctx, pool); err != nil {
				r.close()
				return nil, err
			}
			return r, nil
		},
		replay: func(seed int64) []dynring.SweepSpec { return hotPoolGrids(seed)[:2] },
	},
	{
		name:    "long-horizon",
		clients: 1,
		setup: func(ctx context.Context, seed int64, warm int, log *spanLog) (system, error) {
			l := &local{
				s:       newStream(seed, "long-horizon"),
				samples: &sampler{s: newStream(seed, "long-sample"), every: longEvery, max: longMax},
				log:     log,
			}
			w := &local{s: newStream(seed, fmt.Sprintf("long-warmup-%d", warm)), samples: l.samples, log: log}
			if rec := w.sweep(ctx, 0, 0, false); rec.failed > 0 {
				return nil, fmt.Errorf("warm-up sweep: %d of %d rows failed", rec.failed, rec.rows)
			}
			return l, nil
		},
		replay: func(seed int64) []dynring.SweepSpec {
			return []dynring.SweepSpec{longGrid(newStream(seed, "long-horizon"), 0)}
		},
	},
	coldWorkload("cluster-3", 3),
}

// coldWorkload submits fresh cold grids from its own stream to one node
// (n = 1) or to the coordinator of an n-node cluster.
func coldWorkload(name string, n int) workload {
	return workload{
		name:    name,
		clients: 2,
		setup: func(ctx context.Context, seed int64, warm int, log *spanLog) (system, error) {
			s := newStream(seed, name)
			return setupRemote(ctx, n, seed, warm, log, func(k int) (dynring.SweepSpec, int) { return coldGrid(s, k), -1 })
		},
		replay: func(seed int64) []dynring.SweepSpec {
			s := newStream(seed, name)
			return []dynring.SweepSpec{coldGrid(s, 0), coldGrid(s, 1)}
		},
	}
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func hotPoolGrids(seed int64) []dynring.SweepSpec {
	s := newStream(seed, "hot-pool")
	pool := make([]dynring.SweepSpec, hotPool)
	for i := range pool {
		pool[i] = coldGrid(s, i)
	}
	return pool
}

// setupRemote boots n nodes, connects the clients to the first (the
// coordinator) and runs one fresh warm-up grid through it.
func setupRemote(ctx context.Context, n int, seed int64, warm int, log *spanLog, grid func(int) (dynring.SweepSpec, int)) (*remote, error) {
	nodes, err := bootNodes(ctx, n)
	if err != nil {
		return nil, err
	}
	clients, hc := newClients(nodes[0].url, 2)
	r := &remote{
		nodes:   nodes,
		hc:      hc,
		clients: clients,
		grid:    grid,
		samples: &sampler{s: newStream(seed, "sample"), every: sampleEvery, max: sampleMax},
		log:     log,
	}
	warmup := coldGrid(newStream(seed, fmt.Sprintf("warmup-%d", warm)), 0)
	if _, _, _, _, err := r.run(ctx, 0, warmup, func(dynring.SweepResult) {}); err != nil {
		r.close()
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	return r, nil
}

// setupRepeated sets the workload up reps times, timing each, and keeps
// the last system; the others are closed. It returns the median setup
// time.
func setupRepeated(ctx context.Context, w workload, seed int64, reps int, log *spanLog) (system, []float64, error) {
	var sys system
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if sys != nil {
			sys.close()
		}
		start := time.Now()
		s, err := w.setup(ctx, seed, i, log)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		sys = s
	}
	return sys, times, nil
}
