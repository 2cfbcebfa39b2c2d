package dynring_test

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dynring"
	"dynring/internal/agent"
	"dynring/internal/sim"
)

// acceptanceSweep is the 4-algorithm × 5-size × 10-seed grid (200
// scenarios) used by the determinism and cancellation tests. All four
// algorithms accept the shared defaults (landmark 0, even spacing, all-CW
// orientations); StopWhenExplored keeps the unconscious runs finite.
func acceptanceSweep(workers int) dynring.Sweep {
	return dynring.Sweep{
		Base: dynring.Scenario{
			Landmark:         0,
			StopWhenExplored: true,
			AdversaryLabel:   "random(p=0.4)",
			NewAdversary:     dynring.RandomEdgesFactory(0.4),
		},
		Algorithms: []string{
			"KnownNNoChirality",
			"LandmarkWithChirality",
			"PTLandmarkWithChirality",
			"ETUnconscious",
		},
		Sizes:   []int{6, 8, 10, 12, 14},
		Seeds:   []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		Workers: workers,
	}
}

// zooAdversaries is the dynamics-model-zoo axis: every new parameter-bearing
// family at several parameter values, built from the same serializable specs
// the CLI and the ringsimd wire format use.
func zooAdversaries(t testing.TB) []dynring.SweepAdversary {
	t.Helper()
	specs := []dynring.AdversarySpec{
		{Kind: "tinterval", T: 1},
		{Kind: "tinterval", T: 2},
		{Kind: "tinterval", T: 4},
		{Kind: "capped", R: 1},
		{Kind: "capped", R: 2},
		{Kind: "recurrent", W: 1},
		{Kind: "recurrent", W: 3},
	}
	out := make([]dynring.SweepAdversary, 0, len(specs))
	for _, spec := range specs {
		f, err := spec.Factory()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, dynring.SweepAdversary{Name: spec.Label(), New: f})
	}
	return out
}

// zooSweep extends the acceptance grid with the dynamics-model zoo: three
// landmark-independent algorithms (including the landmark-free Das–Bose–Sau
// regime) × three sizes × the seven zoo adversary parameterizations × five
// seeds — 315 scenarios on anonymous rings, which together with the
// 200-scenario acceptance grid and the proof-adversary extras grows the
// engine-parity corpus past 500.
func zooSweep(workers int) dynring.Sweep {
	return dynring.Sweep{
		Base: dynring.Scenario{
			Landmark:         dynring.NoLandmark,
			StopWhenExplored: true,
		},
		Algorithms: []string{
			"KnownNNoChirality",
			"UnconsciousExploration",
			"LandmarkFreeExactN",
		},
		Sizes:   []int{6, 9, 12},
		Seeds:   []int64{1, 2, 3, 4, 5},
		Workers: workers,
	}
}

// zooScenarios expands the zoo grid.
func zooScenarios(t testing.TB) []dynring.Scenario {
	t.Helper()
	sw := zooSweep(0)
	sw.Adversaries = zooAdversaries(t)
	scs, err := sw.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	return scs
}

// TestZooSweepScenarios: the zoo grid expands to 315 fingerprintable
// scenarios, and every zoo label round-trips through ParseAdversary (the
// grammar the CLI axis uses).
func TestZooSweepScenarios(t *testing.T) {
	scs := zooScenarios(t)
	if len(scs) != 315 {
		t.Fatalf("zoo grid has %d scenarios, want 315", len(scs))
	}
	for _, sc := range scs {
		if _, err := sc.Fingerprint(); err != nil {
			t.Fatalf("%s: not fingerprintable: %v", sc.Name, err)
		}
		if _, err := dynring.ParseAdversary(sc.AdversaryLabel); err != nil {
			t.Fatalf("%s: label %q does not parse: %v", sc.Name, sc.AdversaryLabel, err)
		}
	}
}

// TestSweepScenarios: grid expansion is 200 scenarios in deterministic grid
// order, with labels and per-scenario derived seeds.
func TestSweepScenarios(t *testing.T) {
	scs, err := acceptanceSweep(1).Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 200 {
		t.Fatalf("grid has %d scenarios, want 200", len(scs))
	}
	if scs[0].Name != "KnownNNoChirality/n=6/random(p=0.4)/seed=1" {
		t.Fatalf("unexpected first label %q", scs[0].Name)
	}
	again, err := acceptanceSweep(1).Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	for i := range scs {
		if scs[i].Seed != again[i].Seed {
			t.Fatalf("seed derivation unstable at %d: %d vs %d", i, scs[i].Seed, again[i].Seed)
		}
	}
	// Same seed-axis value, different grid cell → decorrelated seeds.
	if scs[0].Seed == scs[10].Seed {
		t.Fatalf("adjacent cells share a derived seed: %d", scs[0].Seed)
	}
	// Expansion rejects invalid combinations up front.
	bad := acceptanceSweep(1)
	bad.Algorithms = append(bad.Algorithms, "Nope")
	if _, err := bad.Scenarios(); !errors.Is(err, dynring.ErrUnknownAlgorithm) {
		t.Fatalf("invalid grid expansion: err = %v, want ErrUnknownAlgorithm", err)
	}
}

// TestSweepDeterministicAcrossWorkers is the acceptance gate: the full
// 200-scenario grid produces identical per-scenario Results and
// byte-identical aggregates for 1 worker and NumCPU workers.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	collect := func(workers int) []dynring.SweepResult {
		results, err := acceptanceSweep(workers).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	one := collect(1)
	many := collect(runtime.NumCPU())
	if len(one) != 200 || len(many) != 200 {
		t.Fatalf("lengths: %d vs %d, want 200", len(one), len(many))
	}
	for i := range one {
		if one[i].Err != nil || many[i].Err != nil {
			t.Fatalf("scenario %s errored: %v / %v", one[i].Scenario.Name, one[i].Err, many[i].Err)
		}
		if one[i].Scenario.Name != many[i].Scenario.Name {
			t.Fatalf("order diverges at %d: %s vs %s", i, one[i].Scenario.Name, many[i].Scenario.Name)
		}
		if !reflect.DeepEqual(one[i].Result, many[i].Result) {
			t.Fatalf("scenario %s diverges across worker counts:\n%+v\n%+v",
				one[i].Scenario.Name, one[i].Result, many[i].Result)
		}
	}
	aggOne, err := json.Marshal(dynring.Aggregate(one))
	if err != nil {
		t.Fatal(err)
	}
	aggMany, err := json.Marshal(dynring.Aggregate(many))
	if err != nil {
		t.Fatal(err)
	}
	if string(aggOne) != string(aggMany) {
		t.Fatalf("aggregates not byte-identical:\n%s\n%s", aggOne, aggMany)
	}
}

// TestSweepCancellation cancels mid-grid: the stream must close promptly
// without delivering the whole grid, and Run must surface ctx.Err().
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := acceptanceSweep(2).Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for r := range ch {
		delivered++
		if delivered == 3 {
			cancel()
		}
		_ = r
	}
	if delivered >= 200 {
		t.Fatalf("grid ran to completion (%d results) despite cancellation", delivered)
	}

	// Run with an already-cancelled context reports the error and does no
	// work.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	results, err := acceptanceSweep(2).Run(done)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if len(results) != 0 {
		t.Fatalf("Run on cancelled ctx delivered %d results", len(results))
	}
}

// TestSweepDefaultsToBase: a sweep with no axes runs the base scenario
// exactly once.
func TestSweepDefaultsToBase(t *testing.T) {
	results, err := dynring.Sweep{
		Base: dynring.Scenario{
			Size: 9, Landmark: dynring.NoLandmark,
			Algorithm: "KnownNNoChirality",
		},
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	r := results[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if !r.Result.Explored || r.Result.Terminated != 2 {
		t.Fatalf("unexpected result: %+v", r.Result)
	}
	if r.Scenario.AdversaryLabel != "static" {
		t.Fatalf("adversary label = %q, want static", r.Scenario.AdversaryLabel)
	}
}

// TestAggregate: cell keying, counting and means over a hand-built result
// set.
func TestAggregate(t *testing.T) {
	mk := func(algo string, size, rounds, moves int, explored bool) dynring.SweepResult {
		res := dynring.Result{Rounds: rounds, TotalMoves: moves, Explored: explored,
			Outcome: dynring.OutcomeHorizon}
		if explored {
			res.Outcome = dynring.OutcomeExplored
		}
		return dynring.SweepResult{
			Scenario: dynring.Scenario{Algorithm: algo, Size: size, AdversaryLabel: "adv"},
			Result:   res,
		}
	}
	rows := dynring.Aggregate([]dynring.SweepResult{
		mk("A", 8, 10, 4, true),
		mk("A", 8, 20, 8, false),
		mk("B", 8, 5, 1, true),
		{Scenario: dynring.Scenario{Algorithm: "B", Size: 8, AdversaryLabel: "adv"},
			Err: errors.New("boom")},
	})
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	a := rows[0]
	if a.Key != (dynring.AggKey{Algorithm: "A", Size: 8, Adversary: "adv"}) {
		t.Fatalf("row 0 key = %+v", a.Key)
	}
	if a.Runs != 2 || a.Errors != 0 || a.Explored != 1 || a.MeanRounds != 15 ||
		a.MaxRounds != 20 || a.MeanMoves != 6 || a.MaxMoves != 8 {
		t.Fatalf("row 0 aggregates wrong: %+v", a)
	}
	b := rows[1]
	if b.Runs != 2 || b.Errors != 1 || b.MeanRounds != 5 {
		t.Fatalf("row 1 aggregates wrong: %+v", b)
	}
	if b.Outcomes["explored"] != 1 {
		t.Fatalf("row 1 outcomes wrong: %+v", b.Outcomes)
	}
}

// TestAggregateErrorOnlyCell: a cell in which every run failed must still
// produce a consistent row — non-nil (empty) Outcomes, zeroed means, and
// Errors == Runs — so downstream encoders always see the same shape.
func TestAggregateErrorOnlyCell(t *testing.T) {
	boom := errors.New("boom")
	results := []dynring.SweepResult{
		{Scenario: dynring.Scenario{Algorithm: "A", Size: 8, AdversaryLabel: "x"}, Err: boom},
		{Scenario: dynring.Scenario{Algorithm: "A", Size: 8, AdversaryLabel: "x"}, Err: boom},
		{Scenario: dynring.Scenario{Algorithm: "B", Size: 8, AdversaryLabel: "x"},
			Result: dynring.Result{Outcome: dynring.OutcomeAllTerminated, Rounds: 3}},
	}
	rows := dynring.Aggregate(results)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	errRow := rows[0]
	if errRow.Key.Algorithm != "A" {
		t.Fatalf("rows not sorted: %+v", rows)
	}
	if errRow.Runs != 2 || errRow.Errors != 2 {
		t.Fatalf("error-only cell counts: %+v", errRow)
	}
	if errRow.Outcomes == nil {
		t.Fatal("error-only cell has a nil Outcomes map")
	}
	if len(errRow.Outcomes) != 0 {
		t.Fatalf("error-only cell has outcomes: %v", errRow.Outcomes)
	}
	if errRow.MeanRounds != 0 || errRow.MaxRounds != 0 || errRow.MeanMoves != 0 {
		t.Fatalf("error-only cell has non-zero stats: %+v", errRow)
	}
	// JSON consumers see an object, never null.
	buf, err := json.Marshal(errRow)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf), `"Outcomes":{}`) {
		t.Fatalf("Outcomes marshals as %s", buf)
	}
	// And the row still renders.
	if s := errRow.String(); !strings.Contains(s, "errors=2") {
		t.Fatalf("String() = %q", s)
	}
}

// faultOnBlock is a one-agent protocol that walks right and terminates
// after three moves, but faults as soon as it finds itself stuck on a port
// — so a run errors exactly when its adversary blocks the agent.
type faultOnBlock struct{ moves int }

func (p *faultOnBlock) Step(v dynring.View) (dynring.Decision, error) {
	if v.OnPort {
		return dynring.Decision{}, errors.New("blocked")
	}
	if p.moves == 3 {
		return agent.Terminate, nil
	}
	p.moves++
	return agent.Move(agent.Right), nil
}

func (p *faultOnBlock) State() string { return "walk" }

func (p *faultOnBlock) Clone() dynring.Protocol { c := *p; return &c }

// TestSweepStreamRowErrorKeepsGrid: an engine failure on one row surfaces
// as that row's error (a protocol fault here) without stopping the rest of
// the grid.
func TestSweepStreamRowErrorKeepsGrid(t *testing.T) {
	sw := dynring.Sweep{
		Base: dynring.Scenario{
			Size: 8, Landmark: 0, MaxRounds: 20,
			NewProtocols: func() ([]dynring.Protocol, error) {
				return []dynring.Protocol{&faultOnBlock{}}, nil
			},
		},
		Adversaries: []dynring.SweepAdversary{
			{Name: "greedy", New: dynring.Fixed(dynring.GreedyBlocking())},
			{Name: "static"},
		},
		Workers: 2,
	}
	ch, err := sw.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var got []dynring.SweepResult
	for r := range ch {
		got = append(got, r)
	}
	if len(got) != 2 {
		t.Fatalf("%d rows delivered, want 2", len(got))
	}
	if !errors.Is(got[0].Err, sim.ErrProtocolFault) {
		t.Fatalf("blocked row: err=%v, want a protocol fault", got[0].Err)
	}
	if got[1].Err != nil || got[1].Result.Outcome != dynring.OutcomeAllTerminated {
		t.Fatalf("static row: err=%v outcome=%v", got[1].Err, got[1].Result.Outcome)
	}
}

// TestSweepUnlabeledFactoryNotFingerprintable: expansion must never invent
// a label for a custom unlabeled factory — two different factories would
// collide on AdversaryLabel and hence on Fingerprint, poisoning any
// fingerprint-keyed cache. Such scenarios stay runnable but refuse to be
// content-addressed.
func TestSweepUnlabeledFactoryNotFingerprintable(t *testing.T) {
	scs, err := dynring.Sweep{
		Base: dynring.Scenario{
			Size: 8, Landmark: 0, Algorithm: "LandmarkWithChirality",
			NewAdversary: dynring.Fixed(dynring.GreedyBlocking()), // no label
		},
	}.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if scs[0].AdversaryLabel != "" {
		t.Fatalf("expansion invented label %q for an unlabeled factory", scs[0].AdversaryLabel)
	}
	if _, err := scs[0].Fingerprint(); !errors.Is(err, dynring.ErrNotFingerprintable) {
		t.Fatalf("unlabeled expanded scenario fingerprinted: %v", err)
	}
	if _, err := scs[0].Run(); err != nil {
		t.Fatalf("unlabeled scenario must still run: %v", err)
	}
}
