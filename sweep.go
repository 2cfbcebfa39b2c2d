package dynring

import (
	"context"
	"fmt"
	"sort"
	"time"

	"dynring/internal/sweep"
)

// SweepAdversary is one entry of a sweep's adversary axis: a display name
// (it keys aggregation) and the factory that builds a fresh instance per
// scenario.
type SweepAdversary struct {
	Name string
	New  AdversaryFactory
}

// Sweep expands a base scenario along one or more axes into a scenario grid
// and executes it concurrently. Empty axes collapse to the base scenario's
// own value, so a Sweep with no axes set runs the base scenario once.
//
// Execution is deterministic: each scenario derives its own seed from the
// seed-axis value and its identity (algorithm, size, adversary label) —
// never from its grid position — adversaries are built fresh per run, and
// results stream in grid order. Two sweeps of the same grid therefore
// produce identical results (and identical Aggregate output) regardless of
// worker count, and two *overlapping* grids assign their shared scenarios
// identical seeds and fingerprints, so a ringsimd cache serves the overlap
// without recomputation.
type Sweep struct {
	// Base is the scenario template. Its Observer is dropped during
	// expansion: one observer shared across concurrent runs would race.
	Base Scenario
	// Algorithms, Sizes, Seeds and Adversaries are the grid axes, expanded
	// outermost (Algorithms) to innermost (Seeds).
	Algorithms  []string
	Sizes       []int
	Seeds       []int64
	Adversaries []SweepAdversary
	// Workers bounds the worker pool; non-positive means runtime.NumCPU().
	Workers int
	// Memo optionally attaches an in-process result memo shared by all
	// workers: scenarios with identical memo keys — repeats within this
	// grid, overlaps with any earlier sweep run against the same Memo, and
	// seed-axis copies of seed-insensitive scenarios — execute once and
	// replay the cached Result (delivered with Cached set). Replay is
	// exact by the memo-key contract, so aggregation and determinism
	// guarantees are unaffected. Nil means every scenario executes.
	Memo *Memo
}

// SweepResult pairs one scenario of the grid with its outcome. Exactly one
// of Result/Err is meaningful; Err carries validation or engine failures
// and ctx.Err() for runs cancelled mid-flight. Wall is the run's wall-clock
// time — the only non-deterministic field, which is why Aggregate ignores
// it.
type SweepResult struct {
	// Index is the scenario's position in grid order.
	Index    int
	Scenario Scenario
	Result   Result
	Err      error
	Wall     time.Duration
	// Cached reports that the Result was replayed from the sweep's Memo
	// (a hit, or another worker's concurrent execution of the same key)
	// instead of executed for this row. Replayed Results are identical to
	// executed ones; like Wall, Cached is provenance, not payload, and is
	// ignored by Aggregate.
	Cached bool
	// Stats is the engine's execution accounting for this row (rounds
	// stepped vs leapt, see RunStats). Like Wall and Cached it describes
	// how the row ran, not what it computed: it is zero for replayed rows
	// and for rows executed by a remote service, and is ignored by
	// Aggregate.
	Stats RunStats
}

// Scenarios expands the grid into concrete, validated scenarios in grid
// order. Every scenario is labelled with its coordinates and carries a
// deterministically derived seed; invalid combinations abort the expansion
// with a descriptive error, before anything runs.
func (s Sweep) Scenarios() ([]Scenario, error) {
	algos := s.Algorithms
	if len(algos) == 0 {
		algos = []string{s.Base.Algorithm}
	}
	sizes := s.Sizes
	if len(sizes) == 0 {
		sizes = []int{s.Base.Size}
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []int64{s.Base.Seed}
	}
	advs := s.Adversaries
	if len(advs) == 0 {
		label := s.Base.AdversaryLabel
		if label == "" && s.Base.NewAdversary == nil {
			// The absence of dynamics is canonical, so it may be named.
			// A custom unlabeled factory must NOT be given an invented
			// label ("base"): two different factories would then expand to
			// identical AdversaryLabels and hence identical Fingerprints,
			// letting a fingerprint-keyed cache serve one factory's Results
			// for the other. Leaving the label empty keeps such scenarios
			// runnable but not content-addressable (ErrNotFingerprintable).
			label = "static"
		}
		advs = []SweepAdversary{{Name: label, New: s.Base.NewAdversary}}
	}

	out := make([]Scenario, 0, len(algos)*len(sizes)*len(advs)*len(seeds))
	for _, algo := range algos {
		for _, size := range sizes {
			for _, adv := range advs {
				for _, seed := range seeds {
					sc := s.Base
					sc.Algorithm = algo
					sc.Size = size
					sc.NewAdversary = adv.New
					sc.AdversaryLabel = adv.Name
					sc.Seed = sweep.SeedFor(seed, algo, size, adv.Name)
					sc.Observer = nil
					sc.Name = fmt.Sprintf("%s/n=%d/%s/seed=%d", algo, size, adv.Name, seed)
					if err := sc.Validate(); err != nil {
						return nil, fmt.Errorf("sweep scenario %s: %w", sc.Name, err)
					}
					out = append(out, sc)
				}
			}
		}
	}
	return out, nil
}

// Stream expands the grid and executes it on a bounded worker pool,
// delivering results on the returned channel in grid order. The channel is
// closed when the grid is exhausted or ctx is cancelled; scenarios cancelled
// mid-run surface with Err == ctx.Err(), scenarios never started are simply
// not delivered. Expansion errors are reported up front, before any run.
//
// Execution is batched: each worker owns a Runner, so consecutive scenarios
// on one worker reuse the engine's allocations (see Runner), and when the
// sweep carries a Memo every worker's Runner shares it. Results are
// identical to running every scenario through Scenario.RunContext.
func (s Sweep) Stream(ctx context.Context) (<-chan SweepResult, error) {
	scenarios, err := s.Scenarios()
	if err != nil {
		return nil, err
	}
	ch := make(chan SweepResult)
	go func() {
		defer close(ch)
		_ = sweep.OrderedStates(ctx, len(scenarios), s.Workers,
			func() *Runner {
				r := NewRunner()
				r.Memo = s.Memo
				return r
			},
			func(ctx context.Context, r *Runner, i int) SweepResult {
				start := time.Now()
				res, cached, err := r.RunCached(ctx, scenarios[i])
				return SweepResult{
					Index:    i,
					Scenario: scenarios[i],
					Result:   res,
					Err:      err,
					Wall:     time.Since(start),
					Cached:   cached,
					Stats:    r.LastStats(),
				}
			},
			func(_ int, v SweepResult) bool {
				select {
				case ch <- v:
					return true
				case <-ctx.Done():
					return false
				}
			})
	}()
	return ch, nil
}

// Run executes the whole grid and collects the results in grid order. On
// cancellation it returns the results delivered so far together with
// ctx.Err().
func (s Sweep) Run(ctx context.Context) ([]SweepResult, error) {
	ch, err := s.Stream(ctx)
	if err != nil {
		return nil, err
	}
	var out []SweepResult
	for r := range ch {
		out = append(out, r)
	}
	return out, ctx.Err()
}

// AggKey identifies one cell of an aggregation: every axis except the seed,
// which is what aggregation averages over.
type AggKey struct {
	Algorithm string
	Size      int
	Adversary string
}

// AggRow summarizes all runs of one (algorithm, size, adversary) cell.
// Every field is a deterministic function of the runs' Results, so two
// sweeps of the same grid aggregate byte-identically regardless of worker
// count; wall-clock times are deliberately excluded.
type AggRow struct {
	Key AggKey
	// Runs counts scenarios in the cell; Errors those that failed.
	Runs   int
	Errors int
	// Outcomes counts finished runs per outcome label. Aggregate guarantees
	// it is non-nil for every row — empty, not nil, when every run in the
	// cell errored — so JSON consumers always see an object.
	Outcomes map[string]int
	// Explored counts runs that achieved full coverage.
	Explored int
	// MeanRounds/MaxRounds and MeanMoves/MaxMoves aggregate over finished
	// (non-error) runs.
	MeanRounds float64
	MaxRounds  int
	MeanMoves  float64
	MaxMoves   int
	// MeanTerminated is the average number of terminated agents.
	MeanTerminated float64
}

// String renders the row for terminal output.
func (r AggRow) String() string {
	labels := make([]string, 0, len(r.Outcomes))
	for l := range r.Outcomes {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	outcomes := ""
	for _, l := range labels {
		outcomes += fmt.Sprintf(" %s=%d", l, r.Outcomes[l])
	}
	return fmt.Sprintf("%-30s n=%-4d %-12s runs=%-4d errors=%d explored=%-4d rounds μ=%.1f max=%d moves μ=%.1f max=%d term μ=%.1f outcomes:%s",
		r.Key.Algorithm, r.Key.Size, r.Key.Adversary, r.Runs, r.Errors, r.Explored,
		r.MeanRounds, r.MaxRounds, r.MeanMoves, r.MaxMoves, r.MeanTerminated, outcomes)
}

// Aggregate folds sweep results into one row per (algorithm, size,
// adversary) cell, sorted by that key. Pass the full result slice of Run,
// or accumulate a Stream into a slice first.
func Aggregate(results []SweepResult) []AggRow {
	cells := make(map[AggKey]*AggRow)
	var keys []AggKey
	for _, r := range results {
		k := AggKey{
			Algorithm: r.Scenario.Algorithm,
			Size:      r.Scenario.Size,
			Adversary: r.Scenario.AdversaryLabel,
		}
		row, ok := cells[k]
		if !ok {
			row = &AggRow{Key: k, Outcomes: make(map[string]int)}
			cells[k] = row
			keys = append(keys, k)
		}
		row.Runs++
		if r.Err != nil {
			row.Errors++
			continue
		}
		row.Outcomes[r.Result.Outcome.String()]++
		if r.Result.Explored {
			row.Explored++
		}
		row.MeanRounds += float64(r.Result.Rounds)
		if r.Result.Rounds > row.MaxRounds {
			row.MaxRounds = r.Result.Rounds
		}
		row.MeanMoves += float64(r.Result.TotalMoves)
		if r.Result.TotalMoves > row.MaxMoves {
			row.MaxMoves = r.Result.TotalMoves
		}
		row.MeanTerminated += float64(r.Result.Terminated)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Algorithm != b.Algorithm {
			return a.Algorithm < b.Algorithm
		}
		if a.Size != b.Size {
			return a.Size < b.Size
		}
		return a.Adversary < b.Adversary
	})
	out := make([]AggRow, 0, len(keys))
	for _, k := range keys {
		row := cells[k]
		if done := row.Runs - row.Errors; done > 0 {
			row.MeanRounds /= float64(done)
			row.MeanMoves /= float64(done)
			row.MeanTerminated /= float64(done)
		}
		out = append(out, *row)
	}
	return out
}
