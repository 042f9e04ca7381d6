package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/wmm/client"
)

func newTestServer(t *testing.T) (*httptest.Server, *Engine) {
	ts, _, eng := newTestServerOpts(t, ServerOptions{Parallel: 2})
	return ts, eng
}

func newTestServerOpts(t *testing.T, o ServerOptions) (*httptest.Server, *Server, *Engine) {
	t.Helper()
	eng := New(Options{Workers: 2})
	t.Cleanup(eng.Close)
	api := NewServer(eng, o)
	// Cleanups run LIFO: drain HTTP, cancel + wait for runs, close the
	// engine — the same ordering cmd/wmmd uses.
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := api.Shutdown(ctx); err != nil {
			t.Errorf("server shutdown: %v", err)
		}
	})
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)
	return ts, api, eng
}

// testClient returns a typed API client for the test server.  The HTTP
// tests drive the server through wmm/client — the same surface real
// consumers (wmmctl, wmmworker) use — so the client and the server's v1
// contract are exercised together.
func testClient(ts *httptest.Server) *client.Client {
	return client.New(ts.URL)
}

// getJSON keeps raw access for the endpoints whose wire shape is itself
// under test (operational routes, legacy shims, error envelopes).
func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp
}

func postRun(t *testing.T, ts *httptest.Server, spec string) string {
	t.Helper()
	var rs client.RunSpec
	if err := json.Unmarshal([]byte(spec), &rs); err != nil {
		t.Fatalf("bad spec %q: %v", spec, err)
	}
	sub, err := testClient(ts).SubmitRun(context.Background(), rs)
	if err != nil {
		t.Fatalf("submit run: %v", err)
	}
	if sub.ID == "" {
		t.Fatal("run id missing")
	}
	return sub.ID
}

// waitState polls the run until it leaves StateRunning or the deadline
// passes, returning the final status (results included).
func waitState(t *testing.T, ts *httptest.Server, id string, deadline time.Duration) client.RunStatus {
	t.Helper()
	cl := testClient(ts)
	stop := time.Now().Add(deadline)
	for {
		st, err := cl.Run(context.Background(), id, true)
		if err != nil {
			t.Fatalf("run %s status: %v", id, err)
		}
		if st.State != StateRunning {
			return st
		}
		if time.Now().After(stop) {
			t.Fatalf("run %s still %s after %v (%d/%d done)", id, st.State, deadline, st.Completed, st.Total)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	var out map[string]any
	if err := testClient(ts).GetJSON(context.Background(), "/healthz", &out); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if out["status"] != "ok" {
		t.Errorf("healthz = %v", out)
	}
}

func TestExperimentsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	cl := testClient(ts)

	// Walk the catalogue through cursor pagination in awkward page sizes.
	var all []client.ExperimentInfo
	pages := 0
	page := client.Page{Limit: 7}
	for {
		p, err := cl.Experiments(context.Background(), page)
		if err != nil {
			t.Fatalf("experiments page %d: %v", pages, err)
		}
		if len(p.Items) == 0 {
			t.Fatalf("experiments page %d empty (NextAfter %q)", pages, p.NextAfter)
		}
		all = append(all, p.Items...)
		pages++
		if p.NextAfter == "" {
			break
		}
		page.After = p.NextAfter
	}
	if len(all) != 20 {
		t.Fatalf("catalogue has %d experiments, want 20", len(all))
	}
	if pages != 3 {
		t.Errorf("catalogue of 20 in pages of 7 took %d pages, want 3", pages)
	}
	if all[0].Name != "fig1" || all[1].Paper != "Figure 4" {
		t.Errorf("catalogue order wrong: %+v", all[:2])
	}
}

func TestRunLifecycle(t *testing.T) {
	ts, _ := newTestServer(t)
	id := postRun(t, ts, `{"experiments": ["fig4", "txt3"], "short": true, "samples": 2, "seed": 3}`)

	st := waitState(t, ts, id, 2*time.Minute)
	if st.State != StateDone {
		t.Fatalf("run ended %s (err %q)", st.State, st.Error)
	}
	if st.Completed != 2 || len(st.Results) != 2 {
		t.Fatalf("completed=%d results=%d, want 2/2", st.Completed, len(st.Results))
	}
	if st.Results[0].Experiment != "fig4" || !strings.Contains(st.Results[0].Output, "Figure 4") {
		t.Errorf("first result = %q", st.Results[0].Experiment)
	}
	if st.Results[1].Experiment != "txt3" {
		t.Errorf("second result = %q", st.Results[1].Experiment)
	}

	// The run also shows up in the listing.
	list, err := testClient(ts).Runs(context.Background(), client.Page{})
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Items) != 1 || list.Items[0].ID != id {
		t.Errorf("listing = %+v", list.Items)
	}
}

func TestRunValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	// Unknown experiment names are refused before anything executes.
	_, err := testClient(ts).SubmitRun(context.Background(),
		client.RunSpec{Experiments: []string{"bogus"}})
	var apiErr *client.Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Errorf("unknown experiment: %v, want 400 envelope", err)
	}

	_, err = testClient(ts).Run(context.Background(), "nope", false)
	if !client.IsNotFound(err) {
		t.Errorf("unknown run id: %v, want 404", err)
	}
}

func TestRunCancellationEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	// txt1 at full size is minutes of work; the DELETE must stop it at
	// the next sample boundary.
	id := postRun(t, ts, `{"experiments": ["txt1"], "seed": 3}`)

	if _, err := testClient(ts).CancelRun(context.Background(), id); err != nil {
		t.Fatalf("cancel: %v", err)
	}

	st := waitState(t, ts, id, time.Minute)
	if st.State != StateCancelled {
		t.Fatalf("cancelled run ended %s (err %q)", st.State, st.Error)
	}
}

func TestRunTimeout(t *testing.T) {
	ts, _ := newTestServer(t)
	id := postRun(t, ts, `{"experiments": ["txt1"], "seed": 3, "timeout_ms": 1}`)
	st := waitState(t, ts, id, time.Minute)
	if st.State != StateCancelled {
		t.Fatalf("timed-out run ended %s (err %q)", st.State, st.Error)
	}
}

func TestRunStreaming(t *testing.T) {
	ts, _ := newTestServer(t)
	id := postRun(t, ts, `{"experiments": ["fig4"], "short": true, "samples": 2, "seed": 3}`)

	// The raw stream carries the NDJSON content type.
	resp, err := http.Get(fmt.Sprintf("%s/api/v1/runs/%s?stream=1", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type = %q", ct)
	}

	var sawEnd bool
	var events int
	_, err = testClient(ts).WatchRun(context.Background(), id, func(ev client.Event) error {
		events++
		if ev.Event == "end" {
			sawEnd = true
			if ev.State != StateDone {
				t.Errorf("stream ended in state %q", ev.State)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if !sawEnd {
		t.Errorf("stream closed without an end event (%d events)", events)
	}
}

// TestMetricsEndpoint verifies GET /metrics serves Prometheus text
// exposition covering the engine, calibration cache, and HTTP series
// after a run has executed.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	// ext-c11 drives pooled Measure calls (fig4 is calibration-only,
	// txt3 times sequences outside the pool).
	id := postRun(t, ts, `{"experiments": ["ext-c11"], "short": true, "samples": 1, "seed": 3}`)
	waitState(t, ts, id, 2*time.Minute)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)

	for _, want := range []string{
		// Engine series.
		"# TYPE wmm_engine_jobs_executed_total counter",
		"# TYPE wmm_engine_job_queue_wait_seconds histogram",
		"wmm_engine_sample_run_seconds_bucket{le=",
		"wmm_engine_workers 2",
		// Calibration cache series.
		"# TYPE wmm_engine_calibration_cache_hits_total counter",
		"# TYPE wmm_engine_calibration_cache_misses_total counter",
		// HTTP series, labelled by the v1 route pattern the client hit.
		`wmm_http_requests_total{method="POST",path="/api/v1/runs",code="202"} 1`,
		`wmm_http_request_seconds_count{method="POST",path="/api/v1/runs"} 1`,
		// Run lifecycle series.
		`wmm_runs_total{state="submitted"} 1`,
		`wmm_runs_total{state="done"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	// The run executed samples, so the jobs counter must be positive.
	var jobs float64
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "wmm_engine_jobs_executed_total ") {
			fmt.Sscanf(line, "wmm_engine_jobs_executed_total %f", &jobs)
		}
	}
	if jobs <= 0 {
		t.Errorf("wmm_engine_jobs_executed_total = %v, want > 0", jobs)
	}
	// Per-run sample counters surface in RunStatus.
	st, err := testClient(ts).Run(context.Background(), id, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Samples <= 0 || st.Measurements <= 0 {
		t.Errorf("RunStatus counters: samples=%d measurements=%d, want > 0", st.Samples, st.Measurements)
	}
}

// TestServerShutdown verifies the shutdown ordering fix: Shutdown
// cancels every in-flight job — a run, a litmus campaign and an
// optimizer job — waits for their executors, and afterwards closing the
// engine does not panic with a send on a closed channel.
func TestServerShutdown(t *testing.T) {
	ts, api, eng := newTestServerOpts(t, ServerOptions{Parallel: 2})
	// txt1 at full size is minutes of work; shutdown must not wait for it.
	id := postRun(t, ts, `{"experiments": ["txt1"], "seed": 3}`)
	// The campaign's shards and the optimizer's cells queue behind it.
	campaign := submitLitmus(t, ts, client.LitmusSpec{Arch: "armv8", Count: 1000, Trials: 400})
	opt := submitOptimize(t, ts, optSpecJSON)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	start := time.Now()
	if err := api.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("shutdown took %v", d)
	}

	// The engine can now close safely: no Measure is mid-send.
	eng.Close()

	// The run was cancelled, not abandoned.
	st, err := testClient(ts).Run(context.Background(), id, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Errorf("run state after shutdown = %q, want %q", st.State, StateCancelled)
	}
	lst, err := testClient(ts).Litmus(context.Background(), campaign.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if lst.State != StateCancelled {
		t.Errorf("litmus campaign state after shutdown = %q, want %q", lst.State, StateCancelled)
	}
	ost, err := testClient(ts).Optimize(context.Background(), opt.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ost.State != StateCancelled {
		t.Errorf("optimize job state after shutdown = %q, want %q", ost.State, StateCancelled)
	}

	// New submissions are refused.
	_, err = testClient(ts).SubmitRun(context.Background(),
		client.RunSpec{Experiments: []string{"fig4"}, Short: true})
	var apiErr *client.Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Errorf("submit after shutdown: %v, want 503", err)
	}
}

// TestDeleteFinishedRun verifies DELETE on a finished run removes it
// from the catalogue instead of being a silent no-op.
func TestDeleteFinishedRun(t *testing.T) {
	ts, _ := newTestServer(t)
	cl := testClient(ts)
	id := postRun(t, ts, `{"experiments": ["fig4"], "short": true, "samples": 2, "seed": 3}`)
	waitState(t, ts, id, 2*time.Minute)

	out, err := cl.CancelRun(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if out.State != StateDone || !out.Deleted {
		t.Errorf("DELETE finished run = %+v, want done/deleted", out)
	}

	if _, err := cl.Run(context.Background(), id, false); !client.IsNotFound(err) {
		t.Errorf("deleted run still served: %v", err)
	}
	list, err := cl.Runs(context.Background(), client.Page{})
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Items) != 0 {
		t.Errorf("deleted run still listed: %+v", list.Items)
	}
}

// TestRetentionGC verifies the retention sweep removes finished runs so
// a long-lived server does not accumulate them forever.
func TestRetentionGC(t *testing.T) {
	ts, _, _ := newTestServerOpts(t, ServerOptions{
		Parallel: 2, Retain: 50 * time.Millisecond,
	})
	cl := testClient(ts)
	id := postRun(t, ts, `{"experiments": ["fig4"], "short": true, "samples": 2, "seed": 3}`)
	waitState(t, ts, id, 2*time.Minute)

	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := cl.Run(context.Background(), id, false); client.IsNotFound(err) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("finished run still present %v after retention lapsed", 10*time.Second)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestGCKeepsRunningRuns verifies the sweep never removes a run that is
// still executing, however old it is.
func TestGCKeepsRunningRuns(t *testing.T) {
	ts, api, _ := newTestServerOpts(t, ServerOptions{
		Parallel: 2, Retain: time.Nanosecond,
	})
	id := postRun(t, ts, `{"experiments": ["txt1"], "seed": 3}`)
	if n := api.gc(time.Now().Add(time.Hour)); n != 0 {
		t.Errorf("gc removed %d running runs", n)
	}
	if _, err := testClient(ts).Run(context.Background(), id, false); err != nil {
		t.Errorf("running run gone after gc: %v", err)
	}
	// Cleanup (api.Shutdown) cancels the long run.
}

// TestStreamExactlyOnce verifies the subscribe/snapshot race fix: a
// stream opened at any point during a run sees every experiment's
// "done" exactly once — either folded into the snapshot's completed
// count or streamed as an event, never both.
func TestStreamExactlyOnce(t *testing.T) {
	ts, _ := newTestServer(t)
	id := postRun(t, ts,
		`{"experiments": ["fig4", "txt3", "counters", "ablations"], "short": true, "samples": 1, "seed": 3, "parallel": 2}`)

	// Several staggered streams probe different interleavings of
	// subscription vs. progress.
	for attempt := 0; attempt < 3; attempt++ {
		doneSeen := map[string]int{}
		endCompleted := -1
		snap, err := testClient(ts).WatchRun(context.Background(), id, func(ev client.Event) error {
			switch ev.Event {
			case "done":
				doneSeen[ev.Experiment]++
			case "end":
				endCompleted = ev.Completed
			}
			return nil
		})
		if err != nil {
			t.Fatalf("watch %d: %v", attempt, err)
		}
		for exp, n := range doneSeen {
			if n > 1 {
				t.Errorf("stream %d: experiment %s done %d times", attempt, exp, n)
			}
		}
		if endCompleted >= 0 && snap.Completed+len(doneSeen) != endCompleted {
			t.Errorf("stream %d: snapshot completed %d + %d done events != end completed %d",
				attempt, snap.Completed, len(doneSeen), endCompleted)
		}
		time.Sleep(30 * time.Millisecond)
	}
	waitState(t, ts, id, 2*time.Minute)
}
