// Command ringbench is the repository's benchmark: it runs one workload of
// scenario sweeps through the system's public entry points, checks every
// delivered row, and prints the end-to-end metrics (or, with --trace 1,
// the per-layer metrics) as one JSON object on the last line of stdout.
//
//	bash ringbench/run.sh --workload cold-grid --seed 1 --seconds 25 --trace 0
//
// See README.md in this directory for the workloads, the metrics and the
// layer each one times.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// minSweeps is the sweep count a window must record: the p90 then has at
// least 10 samples beyond it. setupReps is the number of set-ups setup_s
// is the median of.
const (
	minSweeps = 100
	setupReps = 5
)

// config is one run's settings. minSweeps, setupReps and outDir are fixed
// for the command; tests shorten them.
type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	minSweeps int
	setupReps int
	outDir    string
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("ringbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; every generated input derives from it")
	fs.IntVar(&cfg.seconds, "seconds", 25, "length of the timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := lookupWorkload(cfg.workload); !ok {
		return cfg, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(names, ", "))
	}
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		return cfg, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	cfg.trace = trace == 1
	cfg.minSweeps, cfg.setupReps, cfg.outDir = minSweeps, setupReps, ".bench_build"
	return cfg, nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := realMain(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "ringbench:", err)
		return 2
	}
	out, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "ringbench:", err)
		return 1
	}
	out.print(stdout, stderr)
	if !out.correct() {
		return 1
	}
	return 0
}

// metric is one reported figure with the number of samples behind it.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
}

// outcome is one run's result.
type outcome struct {
	attempted, failed int
	metrics           []metric
	problems          []string // failed workload guards and correctness notes
	context           []string
}

func (o outcome) correct() bool { return o.failed == 0 && len(o.problems) == 0 }

func (o outcome) print(stdout, stderr io.Writer) {
	for _, c := range o.context {
		fmt.Fprintln(stdout, "context", c)
	}
	for _, m := range o.metrics {
		fmt.Fprintf(stdout, "metric %-32s %14.6g %-8s n=%d\n", m.name, m.value, m.unit, m.samples)
	}
	for _, p := range o.problems {
		fmt.Fprintln(stderr, "ringbench: FAIL:", p)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	doc := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{o.correct(), o.attempted, o.failed, map[string]val{}}
	for _, m := range o.metrics {
		doc.Metrics[m.name] = val{m.value, m.unit}
	}
	b, _ := json.Marshal(doc) // plain numbers and strings always encode
	fmt.Fprintln(stdout, string(b))
}

// run sets the workload up, runs its timed window, checks the rows and
// the workload's guards, and derives the metrics.
func run(ctx context.Context, cfg config) (outcome, error) {
	w, _ := lookupWorkload(cfg.workload)
	log := &spanLog{}
	calib0 := calibrate()
	sys, setupTimes, err := setupRepeated(ctx, w, cfg.seed, cfg.setupReps, log)
	if err != nil {
		return outcome{}, fmt.Errorf("set-up: %w", err)
	}
	defer sys.close()

	var nodes []*node
	if r, ok := sys.(*remote); ok {
		nodes = r.nodes
	}
	before := readCounters(nodes)
	win := runWindow(ctx, sys, w.clients, time.Duration(cfg.seconds)*time.Second, cfg.minSweeps, cfg.trace)
	rssMiB := procStatusKiB("VmHWM") / 1024
	delta := readCounters(nodes).sub(before)
	if err := ctx.Err(); err != nil {
		return outcome{}, err
	}
	rows, failed := win.rows()

	var o outcome
	o.attempted = rows
	var samples *sampler
	switch s := sys.(type) {
	case *remote:
		samples = s.samples
	case *local:
		samples = s.samples
	}
	checked, mismatches, notes := samples.verify()
	o.failed = failed + mismatches
	o.problems = append(o.problems, notes...)
	o.problems = append(o.problems, guards(w, cfg, sys, win, delta, rows)...)
	calib1 := calibrate()

	o.context = []string{
		fmt.Sprintf("workload=%s seed=%d seconds=%d trace=%t", w.name, cfg.seed, cfg.seconds, cfg.trace),
		fmt.Sprintf("gomaxprocs=%d nproc=%d go=%s cpu=%q", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), cpuModel()),
		fmt.Sprintf("host.calib_ms start=%.3f end=%.3f", ms(calib0), ms(calib1)),
		fmt.Sprintf("setup_s reps=%v", setupTimes),
		fmt.Sprintf("window=%.3fs sweeps=%d rows=%d failed=%d verified_sample=%d mismatches=%d",
			win.elapsed.Seconds(), len(win.sweeps), rows, failed, checked, mismatches),
	}
	if rows == 0 {
		o.problems = append(o.problems, "the window settled no rows")
		return o, nil
	}
	if !cfg.trace {
		o.metrics = endToEnd(win, rows, o.failed, rssMiB, setupTimes)
		return o, nil
	}

	specs := w.replay(cfg.seed)
	rr, err := replay(ctx, specs, log, filepath.Join(cfg.outDir, "tmp"))
	if err != nil {
		return outcome{}, fmt.Errorf("layer replay: %w", err)
	}
	o.metrics = layerMetrics(sys, win, delta, rows, rr, (ms(calib0)+ms(calib1))/2)
	path := filepath.Join(cfg.outDir, "spans", fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
	ctxDoc := map[string]any{
		"workload": w.name, "seed": cfg.seed, "seconds": cfg.seconds,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(), "cpu": cpuModel(),
		"host_calib_ms": []float64{ms(calib0), ms(calib1)}, "setup_s": setupTimes,
	}
	if err := log.write(path, ctxDoc); err != nil {
		return outcome{}, fmt.Errorf("writing spans: %w", err)
	}
	o.context = append(o.context, "spans="+path)
	for _, st := range log.selfTimes() {
		o.context = append(o.context, fmt.Sprintf("self_time %-20s count=%-6d total_ms=%.3f self_ms=%.3f", st.Name, st.Count, st.TotalMS, st.SelfMS))
	}
	return o, nil
}

// guards checks the invariants each workload's metrics rely on.
func guards(w workload, cfg config, sys system, win windowResult, d counters, rows int) []string {
	var p []string
	if len(win.sweeps) < cfg.minSweeps {
		p = append(p, fmt.Sprintf("%d sweeps recorded, the p90 needs at least %d", len(win.sweeps), cfg.minSweeps))
	}
	switch w.name {
	case "cold-grid", "cluster-3":
		if d.executions != uint64(rows) {
			p = append(p, fmt.Sprintf("service.executions_per_row: %d executions for %d rows, want exactly one each", d.executions, rows))
		}
	case "hot-repeat":
		if d.misses != 0 || d.hits != uint64(rows) || d.executions != 0 {
			p = append(p, fmt.Sprintf("cache.mem_hit_ratio: %d hits, %d misses, %d executions for %d rows, want every row a memory hit",
				d.hits, d.misses, d.executions, rows))
		}
	}
	if d.fallbacks != 0 {
		p = append(p, fmt.Sprintf("cluster.fallback_rows: %d proxy hops fell back to local execution", d.fallbacks))
	}
	switch s := sys.(type) {
	case *local:
		if s.badReplay > 0 {
			p = append(p, fmt.Sprintf("memo.replay_ratio: %d sweeps did not replay exactly %.3f of their rows", s.badReplay, longReplayRatio))
		}
	case *remote:
		if s.stats.traceErrors > 0 {
			p = append(p, fmt.Sprintf("%d sweep traces could not be joined", s.stats.traceErrors))
		}
	}
	return p
}

func endToEnd(win windowResult, rows, failed int, rssMiB float64, setupTimes []float64) []metric {
	var total, first []float64
	for _, s := range win.sweeps {
		total = append(total, ms(s.total))
		if s.first > 0 {
			first = append(first, ms(s.first))
		}
	}
	sweeps := len(total)
	return []metric{
		{"rows_per_s", "rows/s", float64(rows) / win.elapsed.Seconds(), rows},
		{"sweep_p50_ms", "ms", quantile(total, 0.5), sweeps},
		{"sweep_p90_ms", "ms", quantile(total, 0.9), sweeps},
		{"first_row_p50_ms", "ms", quantile(first, 0.5), len(first)},
		{"cpu_us_per_row", "us", us(win.cpu) / float64(rows), rows},
		{"alloc_kb_per_row", "KiB", float64(win.alloc) / 1024 / float64(rows), rows},
		{"rss_peak_mb", "MiB", rssMiB, 1},
		{"ok_ratio", "ratio", 1 - float64(failed)/float64(rows), rows},
		{"setup_s", "s", quantile(append([]float64(nil), setupTimes...), 0.5), len(setupTimes)},
	}
}

// layerMetrics derives the per-layer metrics of a traced run. A layer the
// workload does not exercise reads 0.
func layerMetrics(sys system, win windowResult, d counters, rows int, rr replayResult, calibMS float64) []metric {
	n := rr.rows
	leapRatio := 0.0
	if rr.stepped+rr.leapt > 0 {
		leapRatio = float64(rr.leapt) / float64(rr.stepped+rr.leapt)
	}
	nsPerStep := 0.0
	if rr.stepped > 0 {
		nsPerStep = float64(rr.runTotal.Nanoseconds()) / float64(rr.stepped)
	}
	out := []metric{
		{"adversary.new_us", "us", rr.advUS, n},
		{"runner.run_us_p50", "us", quantile(rr.runUS, 0.5), n},
		{"sim.rounds_stepped_per_row", "rounds", float64(rr.stepped) / float64(n), n},
		{"sim.rounds_leapt_per_row", "rounds", float64(rr.leapt) / float64(n), n},
		{"sim.leap_ratio", "ratio", leapRatio, n},
		{"sim.ns_per_stepped_round", "ns", nsPerStep, rr.stepped},
		{"spec.expand_us_per_row", "us", rr.expandUS, n},
		{"fingerprint.us_per_row", "us", rr.fpUS, n},
		{"encode.us_per_row", "us", rr.encodeUS, n},
		{"encode.bytes_per_row", "bytes", rr.encodeBytes, n},
		{"cache.get_hit_us", "us", rr.getUS, n * batchReps},
		{"cache.put_us", "us", rr.putUS, n},
		{"cache.disk_get_us", "us", rr.diskGetUS, n},
		{"cache.disk_put_us", "us", rr.diskPutUS, n},
		{"sched.enqueue_next_ns_per_row", "ns", rr.schedNS, n * batchReps},
		{"cluster.owners_ns", "ns", rr.ownersNS, n * batchReps},
	}

	var (
		submitP50, streamPerRow, memHit, queueP50, queueP90 float64
		execP50, hitP50, execPerRow, proxiedRatio, proxyP50 float64
		replayRatio, busyRatio                              float64
		// Sample counts: traced sweeps and their joined rows, rows behind
		// the node counters, per-kind server spans, library-path rows.
		sweeps, joined, counted, queued, execs, hits, proxies, libRows int
	)
	switch s := sys.(type) {
	case *remote:
		st := &s.stats
		sweeps, joined, counted = len(st.submitMS), st.rows, rows
		queued, execs, hits, proxies = len(st.queueMS), len(st.execUS), len(st.hitUS), len(st.proxyMS)
		submitP50 = quantile(st.submitMS, 0.5)
		if st.streamRows > 0 {
			streamPerRow = us(st.streamDur) / float64(st.streamRows)
		}
		if d.hits+d.misses > 0 {
			memHit = float64(d.hits) / float64(d.hits+d.misses)
		}
		queueP50, queueP90 = quantile(st.queueMS, 0.5), quantile(st.queueMS, 0.9)
		execP50, hitP50 = quantile(st.execUS, 0.5), quantile(st.hitUS, 0.5)
		execPerRow = float64(d.executions) / float64(rows)
		if st.rows > 0 {
			proxiedRatio = float64(st.proxied) / float64(st.rows)
		}
		proxyP50 = quantile(st.proxyMS, 0.5)
	case *local:
		libRows = s.rows
		replayRatio = float64(s.replayed) / float64(s.rows)
		busyRatio = s.busy.Seconds() / (sweepWorkers * s.wall.Seconds())
	}
	out = append(out,
		metric{"client.submit_ms_p50", "ms", submitP50, sweeps},
		metric{"client.stream_us_per_row", "us", streamPerRow, joined},
		metric{"cache.mem_hit_ratio", "ratio", memHit, counted},
		metric{"service.queue_wait_ms_p50", "ms", queueP50, queued},
		metric{"service.queue_wait_ms_p90", "ms", queueP90, queued},
		metric{"service.exec_row_us_p50", "us", execP50, execs},
		metric{"service.hit_row_us_p50", "us", hitP50, hits},
		metric{"service.executions_per_row", "ratio", execPerRow, counted},
		metric{"memo.replay_ratio", "ratio", replayRatio, libRows},
		metric{"sweep.busy_ratio", "ratio", busyRatio, libRows},
		metric{"cluster.proxied_ratio", "ratio", proxiedRatio, joined},
		metric{"cluster.proxy_row_ms_p50", "ms", proxyP50, proxies},
		metric{"cluster.fallback_rows", "count", float64(d.fallbacks), counted},
		metric{"host.calib_ms", "ms", calibMS, 6},
		metric{"trace.overhead_ratio", "ratio", overheadRatio(win), len(win.sweeps)},
	)
	return out
}

// overheadRatio is traced over untraced throughput within one window. In
// a closed loop every client is always busy, so a mode's throughput is
// its rows over the clients' summed turns in that mode.
func overheadRatio(win windowResult) float64 {
	var rows [2]int
	var busy [2]time.Duration
	for _, s := range win.sweeps {
		i := 0
		if s.traced {
			i = 1
		}
		rows[i] += s.rows
		busy[i] += s.busy
	}
	if rows[0] == 0 || rows[1] == 0 {
		return 0
	}
	return (float64(rows[1]) / busy[1].Seconds()) / (float64(rows[0]) / busy[0].Seconds())
}
