package rescache

import (
	"context"
	"sync"
)

// Store is the result store a Group fronts. Both Cache and the service's
// two-tier cache satisfy it. Contains must be a pure membership probe — no
// hit/miss counting, no recency refresh, no slow tier — because Group calls
// it under its own lock.
type Store[V any] interface {
	Get(key string) (V, bool)
	Contains(key string) bool
	Put(key string, val V)
}

// Group deduplicates concurrent executions of one key in front of a Store
// (single-flight): the first caller that misses the store executes, callers
// that miss while it runs wait and receive a private copy of its value. It
// is the one execution gate behind both the in-process sweep memo
// (dynring.Memo) and the ringsimd service's ExecuteLocal.
//
// Failures are never stored. When the executing caller (the leader) fails,
// a waiter whose own context is done returns its context's error; any other
// waiter leads a fresh execution, so a cancelled caller cannot poison
// callers that are still live. Safe for concurrent use.
type Group[V any] struct {
	store   Store[V]
	copyVal func(V) V

	mu      sync.Mutex
	flights map[string]*flight[V]
}

// flight is one in-progress execution of a key.
type flight[V any] struct {
	done    chan struct{} // closed when the leader settles
	waiters int           // callers that found the flight; under Group.mu
	val     *V            // the flight's copy of the leader's value
	err     error
}

// NewGroup returns a group in front of store. copyVal deep-copies a value;
// it is applied to the leader's value once for a flight that has waiters
// and once per waiter, so every caller owns its value outright.
func NewGroup[V any](store Store[V], copyVal func(V) V) *Group[V] {
	return &Group[V]{store: store, copyVal: copyVal, flights: make(map[string]*flight[V])}
}

// Do returns the value for key: from the store, from a concurrent call's
// execution of the same key, or by calling exec and storing its value. The
// boolean reports the value was shared (a store hit or another call's
// execution) rather than produced by this call's exec. Only a leader whose
// exec succeeded returns false with a nil error. exec must not panic: a
// panicking leader would never settle its flight.
func (g *Group[V]) Do(ctx context.Context, key string, exec func() (V, error)) (V, bool, error) {
	var zero V
	for {
		if v, ok := g.store.Get(key); ok {
			return v, true, nil
		}
		g.mu.Lock()
		// Re-probe under the lock: a leader stores its value before it
		// retires its flight, so a caller that missed before the store and
		// arrives after the retirement finds the entry here instead of
		// executing again. The probe is uncounted, so a leader's miss is
		// counted once; on success the loop's Get serves (and counts) it.
		if g.store.Contains(key) {
			g.mu.Unlock()
			continue
		}
		if f, ok := g.flights[key]; ok {
			f.waiters++
			g.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return zero, false, ctx.Err()
			}
			if f.err == nil {
				// Take the leader's value from the flight, never from the
				// store: with storage disabled, or after an eviction, a
				// re-read would miss and execute again.
				return g.copyVal(*f.val), true, nil
			}
			if ctx.Err() != nil {
				return zero, false, ctx.Err()
			}
			// The leader failed (typically its context was cancelled) but
			// this caller is still live: lead a fresh execution.
			continue
		}
		f := &flight[V]{done: make(chan struct{})}
		g.flights[key] = f
		g.mu.Unlock()

		v, err := exec()
		if err == nil {
			g.store.Put(key, v)
		}
		g.mu.Lock()
		delete(g.flights, key)
		waited := f.waiters > 0
		g.mu.Unlock()
		if err == nil && waited {
			// The flight keeps its own copy: v belongs to this caller, which
			// may mutate it before a parked waiter is scheduled. Unwaited
			// flights, the common case, skip the copy and stay small.
			c := g.copyVal(v)
			f.val = &c
		}
		f.err = err
		close(f.done)
		return v, false, err
	}
}
