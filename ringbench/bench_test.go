package main

import (
	"context"
	"reflect"
	"testing"

	"dynring"
)

func TestGeneratorDeterministic(t *testing.T) {
	for _, w := range workloads {
		if a, b := w.replay(7), w.replay(7); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated different replay grids", w.name)
		}
		if a, b := w.replay(7), w.replay(8); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 7 and 8 generated the same replay grids", w.name)
		}
	}
	s := newStream(7, "cold-grid")
	for k := 0; k < 4; k++ {
		if !reflect.DeepEqual(coldGrid(s, k), coldGrid(newStream(7, "cold-grid"), k)) {
			t.Fatalf("cold grid %d differs between two streams of one seed", k)
		}
		if !reflect.DeepEqual(longGrid(s, k), longGrid(newStream(7, "cold-grid"), k)) {
			t.Fatalf("long grid %d differs between two streams of one seed", k)
		}
	}
	if !reflect.DeepEqual(hotPoolGrids(7), hotPoolGrids(7)) {
		t.Fatal("hot-repeat pool differs between two calls with one seed")
	}
}

// fingerprints expands the first grids of a cold stream.
func fingerprints(t *testing.T, seed int64, label string, grids int) map[string]bool {
	t.Helper()
	s := newStream(seed, label)
	fps := map[string]bool{}
	for k := 0; k < grids; k++ {
		scs, err := coldGrid(s, k).ScenarioList()
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range scs {
			fp, err := sc.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if fps[fp] {
				t.Fatalf("seed %d %s: fingerprint %s repeats within one run", seed, label, fp)
			}
			fps[fp] = true
		}
	}
	return fps
}

func TestColdFingerprintsDisjointAcrossSeeds(t *testing.T) {
	for _, label := range []string{"cold-grid", "cluster-3"} {
		a, b := fingerprints(t, 1, label, 40), fingerprints(t, 2, label, 40)
		for fp := range a {
			if b[fp] {
				t.Fatalf("%s: seeds 1 and 2 share fingerprint %s", label, fp)
			}
		}
	}
}

func TestLongGridReplayRatio(t *testing.T) {
	sw, err := longGrid(newStream(3, "long-horizon"), 0).Sweep()
	if err != nil {
		t.Fatal(err)
	}
	sw.Workers = sweepWorkers
	sw.Memo = dynring.NewMemo(memoCapacity)
	res, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Scenario.Name, r.Err)
		}
		if r.Cached {
			replayed++
		}
	}
	if got := float64(replayed) / float64(len(res)); got != longReplayRatio {
		t.Fatalf("replay ratio %v, the grid implies %v", got, longReplayRatio)
	}
}

// TestSamplerCatchesWrongRow shows the correctness gate is live: a row
// whose delivered result differs from re-execution is counted.
func TestSamplerCatchesWrongRow(t *testing.T) {
	scs, err := coldGrid(newStream(1, "cold-grid"), 0).ScenarioList()
	if err != nil {
		t.Fatal(err)
	}
	good, err := scs[0].Run()
	if err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Rounds++
	sp := &sampler{every: 1, max: 2}
	sp.offer(0, dynring.SweepResult{Index: 0, Scenario: scs[0], Result: good})
	sp.offer(0, dynring.SweepResult{Index: 1, Scenario: scs[0], Result: bad})
	if checked, mismatches, _ := sp.verify(); checked != 2 || mismatches != 1 {
		t.Fatalf("verify: %d checked, %d mismatches; want 2 and 1", checked, mismatches)
	}
}

// TestShortRunsPassGuards runs every workload briefly, untraced and
// traced, and requires every row correct and every guard to hold.
func TestShortRunsPassGuards(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 5, seconds: 1, trace: trace, minSweeps: 2, setupReps: 2, outDir: t.TempDir()}
			o, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if !o.correct() || o.attempted == 0 {
				t.Fatalf("%s trace=%t: attempted %d, failed %d, problems %v", w.name, trace, o.attempted, o.failed, o.problems)
			}
			want := 9
			if trace {
				want = 31
			}
			if len(o.metrics) != want {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.name, trace, len(o.metrics), want)
			}
		}
	}
}
