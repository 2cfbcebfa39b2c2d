package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dynring"
)

// flushCounter is a ResponseWriter that counts the handler's Flush calls.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (w *flushCounter) Flush() {
	w.flushes++
	w.ResponseRecorder.Flush()
}

// TestResultsStreamCoalescesSettledRows: a settled job's rows are flushed
// once, after the last row, not once per row; between flushes net/http's
// own buffers decide the socket writes.
func TestResultsStreamCoalescesSettledRows(t *testing.T) {
	m := mustNew(t, Options{Workers: 2, CacheSize: 256})
	defer m.Close()
	spec := testSpec()
	spec.Seeds = nil
	for s := int64(1); s <= 24; s++ {
		spec.Seeds = append(spec.Seeds, s)
	}
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j.Total() != 96 {
		t.Fatalf("grid has %d rows, want 96", j.Total())
	}
	waitDone(t, j)

	w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	NewHandler(m).ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+j.ID+"/results", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if lines := bytes.Count(w.Body.Bytes(), []byte("\n")); lines != 96 {
		t.Fatalf("stream has %d rows, want 96", lines)
	}
	if w.flushes != 1 {
		t.Fatalf("%d flushes for 96 settled rows, want 1 (after the last row)", w.flushes)
	}
}

// TestResultsStreamDoesNotHoldSettledRows: coalescing never holds a
// settled row back behind a pending one — row 0 reaches the client while
// row 1 is still running.
func TestResultsStreamDoesNotHoldSettledRows(t *testing.T) {
	m := mustManager(t, Options{CacheSize: 16}) // no workers: rows settle by hand
	defer m.Close()
	spec := testSpec()
	spec.Algorithms, spec.Sizes = spec.Algorithms[:1], spec.Sizes[:1]
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j.Total() != 2 {
		t.Fatalf("grid has %d rows, want 2", j.Total())
	}
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	j.setRow(0, Row{Result: dynring.Result{Rounds: 1}})

	// Bounded: a handler holding row 0 would not even send the headers.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/sweeps/"+j.ID+"/results", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("row 0 never reached the client: %v", err)
	}
	defer resp.Body.Close()
	lines := make(chan string)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	readRow := func(want int) {
		t.Helper()
		select {
		case line := <-lines:
			var row dynring.ResultRow
			if err := json.Unmarshal([]byte(line), &row); err != nil || row.Index != want {
				t.Fatalf("got %q (%v), want row %d", line, err, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("row %d never reached the client", want)
		}
	}
	readRow(0)
	if j.settled(1) {
		t.Fatal("row 1 settled before the test settled it")
	}
	j.setRow(1, Row{Result: dynring.Result{Rounds: 2}})
	readRow(1)
	if line, ok := <-lines; ok {
		t.Fatalf("unexpected line after the last row: %q", line)
	}
}
