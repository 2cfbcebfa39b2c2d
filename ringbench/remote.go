package main

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"time"

	"dynring"
)

// sample is one delivered row kept for re-execution after the window.
type sample struct {
	sc  dynring.Scenario
	res dynring.Result
}

// sampler keeps a seeded sample of delivered rows, about one in every
// `every`, up to max rows.
type sampler struct {
	s     stream
	every int
	max   int

	mu   sync.Mutex
	rows []sample
}

func (sp *sampler) offer(k int, r dynring.SweepResult) {
	if !sampled(sp.s, k, r.Index, sp.every) {
		return
	}
	sp.mu.Lock()
	if len(sp.rows) < sp.max {
		sp.rows = append(sp.rows, sample{sc: r.Scenario, res: r.Result})
	}
	sp.mu.Unlock()
}

// verify re-executes every sampled row with Scenario.Run and returns how
// many differ from what the system delivered.
func (sp *sampler) verify() (checked, mismatches int, notes []string) {
	for _, s := range sp.rows {
		res, err := s.sc.Run()
		if err != nil || !reflect.DeepEqual(res, s.res) {
			mismatches++
			if len(notes) < 5 {
				notes = append(notes, fmt.Sprintf("row %s: re-execution differs from the delivered result (err=%v)", s.sc.Name, err))
			}
		}
	}
	return len(sp.rows), mismatches, notes
}

// remoteStats accumulates what the traced sweeps reveal about the layers
// behind the client: the client's own phases and the server's per-row
// spans joined from GET /v1/sweeps/{id}/trace.
type remoteStats struct {
	mu          sync.Mutex
	submitMS    []float64
	streamDur   time.Duration
	streamRows  int
	rows        int
	queueMS     []float64
	execUS      []float64
	hitUS       []float64
	proxyMS     []float64
	proxied     int
	traceErrors int
	kept        int // traced sweeps whose server spans went into the span log
}

// remote drives ringsimd nodes through the public client: cold-grid,
// hot-repeat and cluster-3.
type remote struct {
	nodes   []*node
	hc      *http.Client
	clients []*dynring.Client
	// grid returns sweep k's spec and, for hot-repeat, the index of its
	// primed pool grid (-1 otherwise).
	grid     func(k int) (dynring.SweepSpec, int)
	expected [][]dynring.Result // hot-repeat: primed results per pool grid
	samples  *sampler           // delivered (or, for hot-repeat, primed) rows to re-execute

	log   *spanLog
	stats remoteStats
}

func (r *remote) close() {
	r.hc.CloseIdleConnections()
	closeNodes(r.nodes)
}

// run submits one grid with Client.RunSweepFunc and returns its results
// together with the client-side timestamps of its phases.
func (r *remote) run(ctx context.Context, c int, spec dynring.SweepSpec, onRow func(dynring.SweepResult)) (res []dynring.SweepResult, st dynring.JobStatus, started, first time.Time, err error) {
	res, err = r.clients[c].RunSweepFunc(ctx, spec,
		func(s dynring.JobStatus) { st, started = s, time.Now() },
		func(sr dynring.SweepResult) {
			if first.IsZero() {
				first = time.Now()
			}
			onRow(sr)
		})
	return res, st, started, first, err
}

func (r *remote) sweep(ctx context.Context, c, k int, traced bool) sweepRec {
	spec, pool := r.grid(k)
	rec := sweepRec{rows: gridRows(spec)}
	bad := 0
	start := time.Now()
	res, st, started, first, err := r.run(ctx, c, spec, func(sr dynring.SweepResult) {
		switch {
		case sr.Err != nil:
			bad++
		case pool >= 0:
			if !reflect.DeepEqual(sr.Result, r.expected[pool][sr.Index]) {
				bad++
			}
		default:
			r.samples.offer(k, sr)
		}
	})
	end := time.Now()
	rec.total = end.Sub(start)
	if !first.IsZero() {
		rec.first = first.Sub(start)
	}
	if err != nil || len(res) != rec.rows {
		rec.failed = rec.rows
		return rec
	}
	rec.failed = bad
	if traced {
		r.join(ctx, c, st, start, started, first, end, rec.rows)
	}
	return rec
}

// join records a traced sweep: the client's sweep span with its
// client.submit, client.first_row and client.stream children, and the
// server's row spans under the sweep's trace ID.
func (r *remote) join(ctx context.Context, c int, st dynring.JobStatus, start, started, first, end time.Time, rows int) {
	tr, err := r.clients[c].SweepTrace(ctx, st.ID)
	r.stats.mu.Lock()
	defer r.stats.mu.Unlock()
	if err != nil || tr.TraceID != st.TraceID {
		r.stats.traceErrors++
		return
	}
	root := r.log.add(spanRec{Trace: st.TraceID, Name: "sweep", Start: start, End: end, Attrs: map[string]string{"sweep_id": st.ID}})
	r.log.add(spanRec{Parent: root, Trace: st.TraceID, Name: "client.submit", Start: start, End: started})
	r.log.add(spanRec{Parent: root, Trace: st.TraceID, Name: "client.first_row", Start: started, End: first})
	r.log.add(spanRec{Parent: root, Trace: st.TraceID, Name: "client.stream", Start: first, End: end})
	s := &r.stats
	s.submitMS = append(s.submitMS, ms(started.Sub(start)))
	s.streamDur += end.Sub(started)
	s.streamRows += rows
	s.rows += rows
	keep := s.kept < keepSweeps
	if keep {
		s.kept++
	} else {
		r.log.drop(len(tr.Spans))
	}
	for _, sp := range tr.Spans {
		d := sp.FinishedAt.Sub(sp.StartedAt)
		if !sp.EnqueuedAt.IsZero() {
			s.queueMS = append(s.queueMS, ms(sp.StartedAt.Sub(sp.EnqueuedAt)))
		}
		switch sp.Kind {
		case "executed":
			s.execUS = append(s.execUS, us(d))
		case "cache-hit":
			s.hitUS = append(s.hitUS, us(d))
		case "proxied":
			s.proxied++
			s.proxyMS = append(s.proxyMS, ms(d))
		}
		if keep {
			r.log.add(spanRec{Parent: root, Trace: tr.TraceID, Name: "service.row", Start: sp.StartedAt, End: sp.FinishedAt,
				Attrs: map[string]string{"kind": sp.Kind, "node": sp.Node, "index": fmt.Sprint(sp.Index)}})
		}
	}
}

// prime runs the pool grids once through the node and keeps their rows as
// the expected results of every later resubmission. A seeded sample of
// them is re-executed after the window like any cold row, so a wrong
// primed row cannot pass as the expected one.
func (r *remote) prime(ctx context.Context, pool []dynring.SweepSpec) error {
	r.expected = make([][]dynring.Result, len(pool))
	for i, spec := range pool {
		res, _, _, _, err := r.run(ctx, 0, spec, func(dynring.SweepResult) {})
		if err != nil {
			return fmt.Errorf("priming pool grid %d: %w", i, err)
		}
		r.expected[i] = make([]dynring.Result, len(res))
		for _, sr := range res {
			if sr.Err != nil {
				return fmt.Errorf("priming pool grid %d row %d: %w", i, sr.Index, sr.Err)
			}
			r.expected[i][sr.Index] = sr.Result
			r.samples.offer(i, sr)
		}
	}
	return nil
}
