package rescache

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// probeStore wraps a Cache and reports every Contains probe. Group probes
// Contains under its lock just before it looks up the key's flight, and a
// leader needs that lock to retire its flight, so once a caller's probe is
// reported while a leader is running, that caller is certain to wait on the
// leader's flight. Tests count probes to park waiters deterministically.
type probeStore struct {
	*Cache[val]
	probed chan struct{}
}

// newProbeStore buffers probe reports so a probe never blocks while its
// caller holds the group lock; 64 exceeds any test's probe count.
func newProbeStore(capacity int) *probeStore {
	return &probeStore{Cache: New[val](capacity, copyVal), probed: make(chan struct{}, 64)}
}

func (s *probeStore) Contains(key string) bool {
	ok := s.Cache.Contains(key)
	s.probed <- struct{}{}
	return ok
}

// awaitProbes blocks until n Contains probes have been reported.
func (s *probeStore) awaitProbes(n int) {
	for range n {
		<-s.probed
	}
}

// outcome is one Do call's return.
type outcome struct {
	v      val
	shared bool
	err    error
}

// goDo runs g.Do on its own goroutine and delivers the outcome.
func goDo(ctx context.Context, g *Group[val], key string, exec func() (val, error)) <-chan outcome {
	ch := make(chan outcome, 1)
	go func() {
		v, shared, err := g.Do(ctx, key, exec)
		ch <- outcome{v, shared, err}
	}()
	return ch
}

// mustNotRun is the exec of a caller that must never lead.
func mustNotRun(t *testing.T) func() (val, error) {
	return func() (val, error) {
		t.Error("waiter executed")
		return val{}, nil
	}
}

// TestGroupDedupesWithStoreDisabled: with storage off, waiters still share
// the leader's execution — they take its value from the flight, never
// from the (empty) store.
func TestGroupDedupesWithStoreDisabled(t *testing.T) {
	const waiters = 6
	st := newProbeStore(0)
	g := NewGroup[val](st, copyVal)
	release := make(chan struct{})
	leader := goDo(context.Background(), g, "k", func() (val, error) {
		<-release
		return val{n: 42, xs: []int{1, 2}}, nil
	})
	st.awaitProbes(1)
	var outs []<-chan outcome
	for range waiters {
		outs = append(outs, goDo(context.Background(), g, "k", mustNotRun(t)))
	}
	st.awaitProbes(waiters)
	close(release)

	if o := <-leader; o.err != nil || o.shared || o.v.n != 42 {
		t.Fatalf("leader = %+v, want executed 42", o)
	}
	for i, ch := range outs {
		if o := <-ch; o.err != nil || !o.shared || o.v.n != 42 || len(o.v.xs) != 2 {
			t.Fatalf("waiter %d = %+v, want shared 42", i, o)
		}
	}
	if s := st.Stats(); s.Size != 0 || s.Hits+s.Misses != 0 {
		t.Fatalf("disabled store recorded %+v", s)
	}
}

// TestGroupWaiterGetsPrivateCopy: every waiter owns its value. Mutating
// the leader's slice, or one waiter's, leaves the others unchanged.
func TestGroupWaiterGetsPrivateCopy(t *testing.T) {
	st := newProbeStore(0)
	g := NewGroup[val](st, copyVal)
	release := make(chan struct{})
	leader := goDo(context.Background(), g, "k", func() (val, error) {
		<-release
		return val{n: 1, xs: []int{10, 20}}, nil
	})
	st.awaitProbes(1)
	w1 := goDo(context.Background(), g, "k", mustNotRun(t))
	w2 := goDo(context.Background(), g, "k", mustNotRun(t))
	st.awaitProbes(2)
	close(release)

	lo := <-leader
	lo.v.xs[0] = -1
	o1, o2 := <-w1, <-w2
	if &o1.v.xs[0] == &lo.v.xs[0] || &o2.v.xs[0] == &lo.v.xs[0] || &o1.v.xs[0] == &o2.v.xs[0] {
		t.Fatal("a waiter's slice aliases another caller's")
	}
	o1.v.xs[1] = -2
	if o1.v.xs[0] != 10 || o2.v.xs[0] != 10 || o2.v.xs[1] != 20 {
		t.Fatalf("waiters saw another caller's mutation: %v, %v", o1.v.xs, o2.v.xs)
	}
}

// expiredCtx reports Canceled once expire is called but never closes its
// Done channel. It models a waiter whose deadline passes at the instant its
// leader fails: the waiter wakes on the flight alone and must notice its
// own context is over.
type expiredCtx struct {
	context.Context
	expired atomic.Bool
}

func (c *expiredCtx) Done() <-chan struct{} { return nil }
func (c *expiredCtx) expire()               { c.expired.Store(true) }

func (c *expiredCtx) Err() error {
	if c.expired.Load() {
		return context.Canceled
	}
	return nil
}

// TestGroupLeaderFailure: a failed leader's error is never shared or
// stored. A live waiter leads a fresh execution; a waiter whose own
// context is done — while waiting, or by the time the leader fails —
// returns its context's error without executing.
func TestGroupLeaderFailure(t *testing.T) {
	st := newProbeStore(8)
	g := NewGroup[val](st, copyVal)
	errBoom := errors.New("boom")
	release := make(chan struct{})
	late := &expiredCtx{Context: context.Background()}
	leader := goDo(context.Background(), g, "k", func() (val, error) {
		<-release
		late.expire()
		return val{}, errBoom
	})
	st.awaitProbes(1)

	var relead atomic.Int32
	live := goDo(context.Background(), g, "k", func() (val, error) {
		relead.Add(1)
		return val{n: 7}, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := goDo(ctx, g, "k", mustNotRun(t))
	expired := goDo(late, g, "k", mustNotRun(t))
	st.awaitProbes(3)
	cancel()
	close(release)

	if o := <-leader; !errors.Is(o.err, errBoom) || o.shared {
		t.Fatalf("leader = %+v, want its own error", o)
	}
	if o := <-cancelled; !errors.Is(o.err, context.Canceled) || o.shared {
		t.Fatalf("cancelled waiter = %+v, want context.Canceled", o)
	}
	if o := <-expired; !errors.Is(o.err, context.Canceled) || o.shared {
		t.Fatalf("expired waiter = %+v, want context.Canceled", o)
	}
	if o := <-live; o.err != nil || o.shared || o.v.n != 7 {
		t.Fatalf("live waiter = %+v, want to lead and execute 7", o)
	}
	if n := relead.Load(); n != 1 {
		t.Fatalf("live waiter executed %d times, want 1", n)
	}
	// The re-led value was stored; the failure never was.
	if v, shared, err := g.Do(context.Background(), "k", mustNotRun(t)); err != nil || !shared || v.n != 7 {
		t.Fatalf("after re-lead: %+v shared=%v err=%v, want stored 7", v, shared, err)
	}
}

// stallStore parks the first Get that misses until resume is closed. It
// models a caller that misses the store just before a leader stores the
// key, and reaches the group only after the leader retired its flight.
type stallStore struct {
	*Cache[val]
	stalled        atomic.Bool
	missed, resume chan struct{}
}

func (s *stallStore) Get(key string) (val, bool) {
	v, ok := s.Cache.Get(key)
	if !ok && s.stalled.CompareAndSwap(false, true) {
		close(s.missed)
		<-s.resume
	}
	return v, ok
}

// TestGroupReprobesAfterLeaderRetires: a caller whose lock-free probe
// missed, but who reaches the group after the leader stored its value and
// retired its flight, is served from the store instead of executing again.
func TestGroupReprobesAfterLeaderRetires(t *testing.T) {
	st := &stallStore{Cache: New[val](8, copyVal), missed: make(chan struct{}), resume: make(chan struct{})}
	g := NewGroup[val](st, copyVal)
	late := goDo(context.Background(), g, "k", mustNotRun(t))
	<-st.missed
	v, shared, err := g.Do(context.Background(), "k", func() (val, error) { return val{n: 3}, nil })
	if err != nil || shared || v.n != 3 {
		t.Fatalf("leader = %+v shared=%v err=%v, want executed 3", v, shared, err)
	}
	close(st.resume)
	if o := <-late; o.err != nil || !o.shared || o.v.n != 3 {
		t.Fatalf("late caller = %+v, want stored 3", o)
	}
}

// TestGroupHammer runs many callers over many keys under -race. With room
// for every key each executes exactly once; with a small store, evictions
// force re-executions, but every caller still receives its key's value as
// a private copy.
func TestGroupHammer(t *testing.T) {
	const (
		workers = 8
		keys    = 64
		rounds  = 400
	)
	for _, capacity := range []int{keys, 8, 0} {
		t.Run(fmt.Sprintf("capacity=%d", capacity), func(t *testing.T) {
			g := NewGroup[val](New[val](capacity, copyVal), copyVal)
			var execs [keys]atomic.Int32
			var wg sync.WaitGroup
			for w := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range rounds {
						k := (w*7 + i) % keys
						v, _, err := g.Do(context.Background(), fmt.Sprint(k), func() (val, error) {
							execs[k].Add(1)
							runtime.Gosched()
							return val{n: k, xs: []int{k}}, nil
						})
						if err != nil || v.n != k || len(v.xs) != 1 || v.xs[0] != k {
							t.Errorf("key %d: got %+v err=%v", k, v, err)
							return
						}
						v.xs[0] = -1 // the copy is private; this must poison nothing
					}
				}()
			}
			wg.Wait()
			if capacity < keys {
				return
			}
			for k := range keys {
				if n := execs[k].Load(); n != 1 {
					t.Errorf("key %d executed %d times, want 1", k, n)
				}
			}
		})
	}
}
