package service

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"dynring"
)

// TestExecuteLocalDedupesWithCacheOff: concurrent ExecuteLocal calls for one
// fingerprint execute once even with the memory tier disabled. Waiters take
// the leader's Result from its flight; a waiter that re-read the (disabled)
// cache instead would miss and execute the scenario again.
func TestExecuteLocalDedupesWithCacheOff(t *testing.T) {
	m := mustNew(t, Options{Workers: 1, CacheSize: 0})
	defer m.Close()

	// A run long enough for all callers to overlap: capped(r=2) defeats
	// landmark-free exploration, and without the leap fast path the engine
	// steps every round up to the horizon.
	sc, err := dynring.ScenarioSpec{
		Algorithm: "LandmarkFreeExactN",
		Size:      12,
		Landmark:  dynring.NoLandmark,
		Adversary: &dynring.AdversarySpec{Kind: "capped", R: 2},
		MaxRounds: 100_000,
	}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	sc.DisableLeap = true
	fp, err := sc.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	const callers = 8
	before := m.executions.Load()
	results := make([]dynring.Result, callers)
	var led atomic.Int32
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, shared, err := m.ExecuteLocal(context.Background(), sc, fp, "")
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			results[i] = res
			if !shared {
				led.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := m.executions.Load() - before; got != 1 {
		t.Fatalf("%d concurrent calls executed %d times, want 1", callers, got)
	}
	if n := led.Load(); n != 1 {
		t.Fatalf("%d callers report executing, want 1", n)
	}
	if results[0].Rounds == 0 {
		t.Fatalf("empty result: %+v", results[0])
	}
	for i := 1; i < callers; i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("caller %d result %+v differs from caller 0 %+v", i, results[i], results[0])
		}
	}
}
