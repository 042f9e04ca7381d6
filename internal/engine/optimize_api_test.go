package engine

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/optimize"
	"repro/wmm/client"
)

// optSpecJSON is the optimizer job used across the API tests: two JVM
// strategies on ARMv8, trimmed sampling so the whole search stays fast.
// Cells: 2 gates + 2 measures + 2 fits = 6.
var optSpecJSON = client.OptimizeSpec{
	Platform:   "jvm",
	Arch:       "armv8",
	Strategies: []string{"jdk8-barriers", "jdk9-acqrel"},
	Samples:    3,
	FitCosts:   []int64{8, 32},
	Workload:   client.OptimizeWorkload{MaxCycles: 60_000},
	Seed:       7,
	Parallel:   2,
}

// optSpecPure is the same search expressed in the optimize package's
// own terms, for cross-checking the API against a direct Run.
var optSpecPure = optimize.Spec{
	Platform:   "jvm",
	Arch:       "armv8",
	Strategies: []string{"jdk8-barriers", "jdk9-acqrel"},
	Samples:    3,
	FitCosts:   []int64{8, 32},
	Workload:   optimize.WorkloadSpec{MaxCycles: 60_000},
	Seed:       7,
}

func submitOptimize(t *testing.T, ts *httptest.Server, spec client.OptimizeSpec) client.Submitted {
	t.Helper()
	sub, err := testClient(ts).SubmitOptimize(context.Background(), spec)
	if err != nil {
		t.Fatalf("submit optimize: %v", err)
	}
	return sub
}

func waitOptimize(t *testing.T, ts *httptest.Server, id string) client.OptimizeStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := testClient(ts).WaitOptimize(ctx, id, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("wait optimize %s: %v", id, err)
	}
	return st
}

// TestOptimizeAPILocal exercises the optimizer job lifecycle on a
// server whose cells run in its local slots: submit, wait, status
// accounting, the canonical report, listing and removal.
func TestOptimizeAPILocal(t *testing.T) {
	ts, _ := newTestServer(t)
	cl := testClient(ts)

	sub := submitOptimize(t, ts, optSpecJSON)
	if sub.Total != 2 {
		t.Fatalf("total = %d gate cells, want 2 (one per candidate)", sub.Total)
	}
	st := waitOptimize(t, ts, sub.ID)
	if st.State != client.StateDone {
		t.Fatalf("job ended %s (err %q)", st.State, st.Error)
	}
	if st.Kind != "optimize" || st.Phase != PhaseDone {
		t.Errorf("kind/phase = %q/%q, want optimize/done", st.Kind, st.Phase)
	}
	if st.Candidates != 2 || st.Tried != 2 || st.RejectedUnsound != 0 || st.Scored != 2 {
		t.Errorf("candidates/tried/rejected/scored = %d/%d/%d/%d, want 2/2/0/2",
			st.Candidates, st.Tried, st.RejectedUnsound, st.Scored)
	}
	if st.CellsDone != 6 {
		t.Errorf("cells_done = %d, want 6 (2 gates + 2 measures + 2 fits)", st.CellsDone)
	}
	if st.Best != "jdk9-acqrel" {
		t.Errorf("best = %q, want jdk9-acqrel", st.Best)
	}
	if len(st.Report) == 0 {
		t.Error("finished job carries no report")
	}
	if st.FinishedAt == nil {
		t.Error("finished job has no finished_at")
	}

	// The canonical report is stable across fetches and byte-identical
	// to a direct in-process optimize.Run of the same spec.
	a, err := cl.CanonicalOptimize(context.Background(), sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.CanonicalOptimize(context.Background(), sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("canonical report differs between fetches")
	}
	rep, err := optimize.Run(optSpecPure)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, want) {
		t.Errorf("API report diverged from direct optimize.Run:\n--- API ---\n%s\n--- direct ---\n%s", a, want)
	}

	// Listing carries the job (without the report); removal makes it
	// unknown.
	listing, err := cl.OptimizeList(context.Background(), client.Page{})
	if err != nil {
		t.Fatal(err)
	}
	if len(listing.Items) != 1 || listing.Items[0].ID != sub.ID {
		t.Fatalf("listing = %+v, want the one job", listing.Items)
	}
	if len(listing.Items[0].Report) != 0 {
		t.Error("list rows must not carry the full report")
	}
	if _, err := cl.CancelOptimize(context.Background(), sub.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Optimize(context.Background(), sub.ID); !client.IsNotFound(err) {
		t.Errorf("status after delete: %v, want 404", err)
	}
}

// TestOptimizeDispatchIdentity verifies the dispatcher invariant for
// the optimizer family: a job fanned through the queue and local slots
// serves a canonical report byte-identical to a direct optimize.Run of
// the same spec.
func TestOptimizeDispatchIdentity(t *testing.T) {
	rep, err := optimize.Run(optSpecPure)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}

	ts, _ := newDispatchServer(t, DispatchOptions{})
	sub := submitOptimize(t, ts, optSpecJSON)
	if st := waitOptimize(t, ts, sub.ID); st.State != client.StateDone {
		t.Fatalf("dispatched job ended %s (err %q)", st.State, st.Error)
	}
	got, err := testClient(ts).CanonicalOptimize(context.Background(), sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("dispatched job diverged from direct optimize.Run:\n--- direct ---\n%s\n--- dispatched ---\n%s", want, got)
	}
}

// TestOptimizeCacheReuse: optimizer cells are content-addressed, so
// resubmitting a spec resolves every cell from the result cache — no
// re-measurement — and still assembles a byte-identical report.
func TestOptimizeCacheReuse(t *testing.T) {
	cl, api, cache := newCachedServer(t, nil)

	sub1, err := cl.SubmitOptimize(context.Background(), optSpecJSON)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if st, err := cl.WaitOptimize(ctx, sub1.ID, 20*time.Millisecond); err != nil || st.State != client.StateDone {
		t.Fatalf("first job: state %v err %v", st.State, err)
	}
	if local := api.disp.met.jobsDone.Value("local"); local != 6 {
		t.Fatalf("local executions after first job = %v, want 6", local)
	}

	sub2, err := cl.SubmitOptimize(context.Background(), optSpecJSON)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := cl.WaitOptimize(ctx, sub2.ID, 20*time.Millisecond); err != nil || st.State != client.StateDone {
		t.Fatalf("second job: state %v err %v", st.State, err)
	}
	if local := api.disp.met.jobsDone.Value("local"); local != 6 {
		t.Errorf("local executions after second job = %v, want still 6 (all cells cached)", local)
	}
	if cached := api.disp.met.jobsDone.Value("cache"); cached != 6 {
		t.Errorf("cache-resolved cells = %v, want 6", cached)
	}
	if st := cache.Stats(); st.Hits != 6 || st.Misses != 6 {
		t.Errorf("cache stats = %+v, want 6 hits / 6 misses", st)
	}

	can1, err := cl.CanonicalOptimize(context.Background(), sub1.ID)
	if err != nil {
		t.Fatal(err)
	}
	can2, err := cl.CanonicalOptimize(context.Background(), sub2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(can1, can2) {
		t.Error("cached job's canonical report differs from the executed job's")
	}
}

// TestOptimizeUnsoundBaselineFails: a job whose baseline is rejected by
// the soundness gate fails before the scoring wave — there is nothing
// to rank against — with the rejection in the error.
func TestOptimizeUnsoundBaselineFails(t *testing.T) {
	ts, _ := newTestServer(t)
	spec := optSpecJSON
	spec.Strategies = []string{"hybrid-ldar+dmb-nosl", "jdk9-acqrel"}
	spec.Baseline = "hybrid-ldar+dmb-nosl"
	sub := submitOptimize(t, ts, spec)
	st := waitOptimize(t, ts, sub.ID)
	if st.State != client.StateFailed {
		t.Fatalf("job ended %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "baseline") {
		t.Errorf("error %q does not name the baseline rejection", st.Error)
	}
	if st.RejectedUnsound != 1 {
		t.Errorf("rejected_unsound = %d, want 1", st.RejectedUnsound)
	}
	if _, err := testClient(ts).CanonicalOptimize(context.Background(), sub.ID); err == nil {
		t.Error("canonical of a report-less failed job succeeded, want 409")
	}
}

// TestOptimizeValidation verifies malformed optimizer specs are refused
// with the uniform envelope before any work is admitted.
func TestOptimizeValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	for name, body := range map[string]string{
		"unknown platform":  `{"platform": "rust"}`,
		"unknown arch":      `{"arch": "riscv"}`,
		"unknown strategy":  `{"strategies": ["jdk8-barriers", "jdk11"]}`,
		"baseline excluded": `{"strategies": ["jdk9-acqrel"]}`,
		"one fit cost":      `{"fit_costs": [8]}`,
		"negative parallel": `{"parallel": -1}`,
		"bad mix op":        `{"workload": {"mix": {"rcu_derefs": 1}}}`,
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/api/v1/optimize", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				resp.Body.Close()
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			if code, _ := decodeEnvelope(t, resp); code != ErrCodeInvalidArgument {
				t.Errorf("envelope code = %q, want %q", code, ErrCodeInvalidArgument)
			}
		})
	}
}

// TestOptimizeCellKeyDiscriminates pins the content hash: the engine
// version, cell identity and normalised spec all participate, and
// execution-irrelevant wire fields do not exist on the cell at all.
func TestOptimizeCellKeyDiscriminates(t *testing.T) {
	sp := optSpecPure.WithDefaults()
	cells, err := sp.GateCells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) < 2 {
		t.Fatalf("only %d gate cells", len(cells))
	}
	k0, err := OptimizeCellKey(cells[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(k0) != 64 || strings.ToLower(k0) != k0 {
		t.Fatalf("key %q is not lowercase sha256 hex", k0)
	}
	k1, err := OptimizeCellKey(cells[1])
	if err != nil {
		t.Fatal(err)
	}
	if k0 == k1 {
		t.Error("different cells share a content hash")
	}
	reseeded := cells[0]
	reseeded.Spec.Seed++
	k2, err := OptimizeCellKey(reseeded)
	if err != nil {
		t.Fatal(err)
	}
	if k2 == k0 {
		t.Error("changing the spec seed did not change the content hash")
	}
	again, err := OptimizeCellKey(cells[0])
	if err != nil {
		t.Fatal(err)
	}
	if again != k0 {
		t.Error("content hash is not deterministic")
	}
}
