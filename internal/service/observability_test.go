package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"dynring"
)

// scrapeMetric fetches /metrics from url and returns the summed value of
// every sample line for the named family (labelled series included).
func scrapeMetric(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	found := false
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if line != name && !strings.HasPrefix(line, name+" ") && !strings.HasPrefix(line, name+"{") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		sum += v
		found = true
	}
	if !found {
		t.Fatalf("metric %s absent from %s/metrics", name, url)
	}
	return sum
}

// waitRemote polls a sweep over the wire until it settles.
func waitRemote(t *testing.T, c *dynring.Client, id string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for {
		st, err := c.SweepStatus(ctx, id)
		if err != nil {
			t.Fatalf("sweep %s status: %v", id, err)
		}
		if st.Done() {
			return
		}
		select {
		case <-ctx.Done():
			t.Fatalf("sweep %s never settled", id)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestClusterMetricsExactlyOnce is the /metrics form of the acceptance
// gate: after one sweep through a 3-node cluster, the per-node
// dynring_service_executions_total counters sum to exactly the grid size.
func TestClusterMetricsExactlyOnce(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	j, err := nodes[0].m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	var sum float64
	for _, nd := range nodes {
		sum += scrapeMetric(t, nd.url, "dynring_service_executions_total")
	}
	if want := float64(j.Total()); sum != want {
		t.Fatalf("executions_total summed across peers = %v, want %v", sum, want)
	}

	// The engine counters prove RunStats flowed from internal/sim through
	// the runner into service metrics: every executed round is accounted
	// somewhere cluster-wide.
	var rounds float64
	for _, nd := range nodes {
		rounds += scrapeMetric(t, nd.url, "dynring_engine_rounds_stepped_total")
		rounds += scrapeMetric(t, nd.url, "dynring_engine_rounds_leapt_total")
	}
	if rounds == 0 {
		t.Fatal("engine round counters all zero after a full sweep")
	}

	// Cluster families exist on a cluster node and the proxy counter agrees
	// with /statsz.
	proxied := scrapeMetric(t, nodes[0].url, "dynring_cluster_proxied_total")
	if got := float64(nodes[0].m.Stats().Proxied); proxied != got {
		t.Fatalf("proxied_total = %v, /statsz proxied = %v", proxied, got)
	}
	if proxied == 0 {
		t.Fatal("coordinator proxied nothing — grid never left the node")
	}
	if alive := scrapeMetric(t, nodes[0].url, "dynring_cluster_peers"); alive != 3 {
		t.Fatalf("peer-state gauges sum to %v, want 3", alive)
	}
}

// TestClusterTraceSpansTwoNodes is the tracing acceptance gate: a proxied
// sweep submitted over HTTP yields one trace whose spans name at least two
// distinct nodes, all under the trace ID echoed at submission.
func TestClusterTraceSpansTwoNodes(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	c := dynring.NewClient(nodes[0].url)

	st, err := c.SubmitSweep(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceID == "" {
		t.Fatal("submission response carries no trace ID")
	}
	waitRemote(t, c, st.ID)

	tr, err := c.SweepTrace(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if tr.TraceID != st.TraceID {
		t.Fatalf("trace ID %q != submitted %q", tr.TraceID, st.TraceID)
	}
	if tr.SweepID != st.ID {
		t.Fatalf("trace sweep ID %q != job %q", tr.SweepID, st.ID)
	}
	if len(tr.Spans) == 0 {
		t.Fatal("trace has no spans")
	}
	settled := map[int]bool{}
	kinds := map[string]int{}
	distinctNodes := map[string]bool{}
	for _, s := range tr.Spans {
		if s.Node == "" || s.Kind == "" {
			t.Fatalf("span missing node or kind: %+v", s)
		}
		if s.FinishedAt.Before(s.StartedAt) {
			t.Fatalf("span %d finished before it started: %+v", s.Index, s)
		}
		kinds[s.Kind]++
		distinctNodes[s.Node] = true
		if s.Kind != "proxied" {
			// Exactly one terminal span per scenario index; the extra
			// "proxied" hop span shares its index with the owner's span.
			if settled[s.Index] {
				t.Fatalf("scenario %d settled twice in the trace", s.Index)
			}
			settled[s.Index] = true
		}
	}
	if len(settled) != st.Total {
		t.Fatalf("%d scenarios settled in trace, want %d", len(settled), st.Total)
	}
	if len(distinctNodes) < 2 {
		t.Fatalf("trace names %d distinct node(s) %v, want >= 2 (proxied hops must carry the owner's span)", len(distinctNodes), distinctNodes)
	}
	if kinds["proxied"] == 0 || kinds["executed"] == 0 {
		t.Fatalf("span kinds %v: want both proxied hops and executions", kinds)
	}

	// A second identical sweep reuses nothing trace-wise: fresh trace ID,
	// and its spans are all cache hits.
	st2, err := c.SubmitSweep(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st2.TraceID == st.TraceID {
		t.Fatal("second sweep reused the first sweep's trace ID")
	}
	waitRemote(t, c, st2.ID)
	tr2, err := c.SweepTrace(context.Background(), st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tr2.Spans {
		if s.Kind == "executed" {
			t.Fatalf("repeat sweep executed scenario %d; trace should be all cache/proxy", s.Index)
		}
	}
}

// TestTracePropagatesCallerID: a caller-supplied X-Dynring-Trace header is
// adopted verbatim instead of a generated ID.
func TestTracePropagatesCallerID(t *testing.T) {
	m := mustNew(t, Options{Workers: 2, CacheSize: 64})
	defer m.Close()
	const want = "feedfacecafebeef"
	j, err := m.SubmitJob(testSpec(), SubmitOptions{TraceID: want})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if got := j.Status().TraceID; got != want {
		t.Fatalf("job trace ID %q, want caller-supplied %q", got, want)
	}
	tr, ok := m.Trace(j.ID)
	if !ok || tr.TraceID != want {
		t.Fatalf("Trace = (%+v, %v), want trace ID %q", tr, ok, want)
	}
}

// TestTraceUnknownSweep404s pins the endpoint's error contract.
func TestTraceUnknownSweep404s(t *testing.T) {
	m := mustNew(t, Options{Workers: 1, CacheSize: 8})
	defer m.Close()
	req, rec := newTestRequest(http.MethodGet, "/v1/sweeps/nope/trace", nil)
	NewHandler(m).ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown sweep trace status %d, want 404", rec.Code)
	}
}

// TestStatszHitRatioZeroFresh pins the satellite fix: a server that has
// never looked anything up reports hit_ratio 0, not NaN — NaN is not valid
// JSON and would make the whole /statsz document unmarshalable.
func TestStatszHitRatioZeroFresh(t *testing.T) {
	m := mustNew(t, Options{Workers: 1, CacheSize: 8})
	defer m.Close()
	req, rec := newTestRequest(http.MethodGet, "/statsz", nil)
	NewHandler(m).ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/statsz status %d: %s", rec.Code, rec.Body)
	}
	var doc struct {
		HitRatio json.RawMessage `json:"hit_ratio"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("fresh /statsz is not valid JSON: %v\n%s", err, rec.Body)
	}
	if got := string(doc.HitRatio); got != "0" {
		t.Fatalf("fresh hit_ratio rendered as %q, want literal 0", got)
	}
	st := m.Stats()
	if st.Cache.Hits != 0 || st.Cache.Misses != 0 {
		t.Fatalf("manager not fresh: %+v", st.Cache)
	}
	if r := st.HitRatio; r != 0 {
		t.Fatalf("Stats().HitRatio = %v, want 0", r)
	}
}

// TestMetricsEndpointShape: every family advertised on a disk-tier node
// renders HELP before TYPE before samples, and the histogram families
// carry the _bucket/_sum/_count triplet.
func TestMetricsEndpointShape(t *testing.T) {
	m := mustNew(t, Options{Workers: 2, CacheSize: 64, DiskDir: t.TempDir()})
	defer m.Close()
	j, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	req, rec := newTestRequest(http.MethodGet, "/metrics", nil)
	NewHandler(m).ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	out := rec.Body.String()
	for _, want := range []string{
		fmt.Sprintf("dynring_service_executions_total %d\n", j.Total()),
		`dynring_cache_hits_total{tier="memory"}`,
		`dynring_cache_misses_total{tier="disk"}`,
		"dynring_cache_promotions_total",
		"dynring_cache_write_queue_depth",
		"# TYPE dynring_service_run_seconds histogram\n",
		`dynring_service_run_seconds_bucket{le="+Inf"} ` + fmt.Sprint(j.Total()),
		fmt.Sprintf("dynring_service_run_seconds_count %d\n", j.Total()),
		fmt.Sprintf("dynring_service_queue_wait_seconds_count %d\n", j.Total()),
		"# HELP dynring_engine_leaps_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(out, "dynring_cluster_") {
		t.Error("standalone node renders cluster families")
	}
}
