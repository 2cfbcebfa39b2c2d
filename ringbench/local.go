package main

import (
	"context"
	"sync"
	"time"

	"dynring"
)

// sweepWorkers pins the library path's pool like the nodes'.
const sweepWorkers = 2

// memoCapacity bounds each sweep's fresh Memo; it holds every distinct
// key of a long-horizon grid.
const memoCapacity = 256

// local drives the library path as `ringsim -sweep` runs it: Sweep.Stream
// with two workers and a fresh Memo per sweep, no service code.
type local struct {
	s       stream
	samples *sampler
	log     *spanLog

	mu        sync.Mutex
	rows      int
	replayed  int
	busy      time.Duration // Σ SweepResult.Wall
	wall      time.Duration // Σ sweep wall time
	badReplay int           // sweeps whose replay count differs from the grid's
}

func (l *local) close() {}

func (l *local) sweep(ctx context.Context, _, k int, traced bool) sweepRec {
	spec := longGrid(l.s, k)
	rec := sweepRec{rows: gridRows(spec)}
	start := time.Now()
	sw, err := spec.Sweep()
	if err != nil {
		rec.failed = rec.rows
		return rec
	}
	sw.Workers = sweepWorkers
	sw.Memo = dynring.NewMemo(memoCapacity)
	ch, err := sw.Stream(ctx)
	if err != nil {
		rec.failed = rec.rows
		return rec
	}
	var first time.Time
	n, replayed := 0, 0
	var busy time.Duration
	for r := range ch {
		if first.IsZero() {
			first = time.Now()
		}
		n++
		busy += r.Wall
		if r.Cached {
			replayed++
		}
		if r.Err != nil {
			rec.failed++
			continue
		}
		l.samples.offer(k, r)
	}
	end := time.Now()
	rec.total = end.Sub(start)
	if !first.IsZero() {
		rec.first = first.Sub(start)
	}
	if n != rec.rows {
		rec.failed = rec.rows
	}
	l.mu.Lock()
	l.rows += n
	l.replayed += replayed
	l.busy += busy
	l.wall += rec.total
	if float64(replayed) != longReplayRatio*float64(rec.rows) {
		l.badReplay++
	}
	l.mu.Unlock()
	if traced {
		root := l.log.add(spanRec{Name: "sweep", Start: start, End: end})
		l.log.add(spanRec{Parent: root, Name: "sweep.first_row", Start: start, End: first})
		l.log.add(spanRec{Parent: root, Name: "sweep.stream", Start: first, End: end})
	}
	return rec
}
