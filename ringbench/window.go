package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// sweepRec is one completed sweep of the timed window.
type sweepRec struct {
	total  time.Duration // submit (or Sweep.Stream call) to last row
	first  time.Duration // submit to first delivered row; 0 when none arrived
	rows   int           // rows the grid has
	failed int           // error rows, rows failing an inline check, or all rows of a failed request
	traced bool
	busy   time.Duration // the caller's whole turn, trace joining included
}

// system is what a workload drives in its closed loop: a booted node,
// cluster or library path that can run grid k of the workload's stream.
type system interface {
	// sweep runs grid k for client c and waits for its last row. With
	// traced set it also records spans into the run's trace.
	sweep(ctx context.Context, c, k int, traced bool) sweepRec
	close()
}

// windowResult is the closed loop's raw outcome.
type windowResult struct {
	sweeps  []sweepRec
	elapsed time.Duration
	cpu     time.Duration
	alloc   uint64
}

func (w windowResult) rows() (rows, failed int) {
	for _, s := range w.sweeps {
		rows += s.rows
		failed += s.failed
	}
	return rows, failed
}

// traceSlice is the length of the alternating untraced/traced slices of a
// traced run: a tenth of the window, within [100ms, 1s]. Sweeps started in
// odd slices are traced.
func traceSlice(window time.Duration) time.Duration {
	return min(max(window/10, 100*time.Millisecond), time.Second)
}

// runWindow runs clients closed-loop callers of sys for the given time.
// The window also stays open until minSweeps sweeps are recorded, so a
// slow host still yields enough samples for the p90, but never past three
// times its length. With alternate set, sweeps alternate between untraced
// and traced slices.
func runWindow(ctx context.Context, sys system, clients int, length time.Duration, minSweeps int, alternate bool) windowResult {
	var (
		next  atomic.Int64
		count atomic.Int64
		mu    sync.Mutex
		recs  []sweepRec
		wg    sync.WaitGroup
	)
	cpu0, alloc0 := cpuTime(), totalAlloc()
	start := time.Now()
	deadline, hardStop := start.Add(length), start.Add(3*length)
	slice := traceSlice(length)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				now := time.Now()
				if now.After(hardStop) || (now.After(deadline) && count.Load() >= int64(minSweeps)) {
					return
				}
				traced := alternate && int(now.Sub(start)/slice)%2 == 1
				rec := sys.sweep(ctx, c, int(next.Add(1)-1), traced)
				rec.traced, rec.busy = traced, time.Since(now)
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
				count.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	return windowResult{
		sweeps:  recs,
		elapsed: elapsed,
		cpu:     cpuTime() - cpu0,
		alloc:   totalAlloc() - alloc0,
	}
}
