package worker

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/wmm/client"
)

// e2eSpec is the run used by the distributed tests: two experiments so
// the batch can split across workers, small enough to stay fast.
var e2eSpec = client.RunSpec{
	Experiments: []string{"fig4", "txt3"},
	Short:       true,
	Samples:     2,
	Seed:        3,
	Parallel:    2,
}

// newCoordinator builds a wmmd-equivalent server.  Runs shard onto the
// job queue; the zero options serve them from local slots like a plain
// wmmd, and LocalSlots -1 makes it a pure coordinator that depends
// entirely on leased workers.
func newCoordinator(t *testing.T, dispatch engine.DispatchOptions) *httptest.Server {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	api := engine.NewServer(eng, engine.ServerOptions{Parallel: 2, Dispatch: dispatch})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := api.Shutdown(ctx); err != nil {
			t.Errorf("coordinator shutdown: %v", err)
		}
	})
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// startWorker runs an in-process worker loop (its own engine pool, its
// own API client — exactly what cmd/wmmworker wires up) until the test
// ends.
func startWorker(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		Run(ctx, Config{
			Coordinator: ts.URL,
			ID:          id,
			Poll:        20 * time.Millisecond,
			Engine:      eng,
		})
	}()
	// Stop the loop before its engine closes (cleanups run LIFO).
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Errorf("worker %s did not stop", id)
		}
	})
}

func runToDone(t *testing.T, ts *httptest.Server, spec client.RunSpec, deadline time.Duration) string {
	t.Helper()
	cl := client.New(ts.URL)
	sub, err := cl.SubmitRun(context.Background(), spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	st, err := cl.WaitRun(ctx, sub.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("wait %s: %v", sub.ID, err)
	}
	if st.State != client.StateDone {
		t.Fatalf("run %s ended %s (err %q)", sub.ID, st.State, st.Error)
	}
	return sub.ID
}

func canonical(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	raw, err := client.New(ts.URL).CanonicalRun(context.Background(), id)
	if err != nil {
		t.Fatalf("canonical %s: %v", id, err)
	}
	return raw
}

// metricValue scrapes one un-labelled or exactly-labelled series from
// the coordinator's /metrics exposition.
func metricValue(t *testing.T, ts *httptest.Server, series string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, series+" ") {
			var v float64
			fmt.Sscanf(line[len(series)+1:], "%f", &v)
			return v
		}
	}
	return 0
}

// TestDistributedCanonicalIdentity is the tentpole's end-to-end
// acceptance test: a run sharded across two worker processes attached
// to a coordinator with no local execution produces canonical JSON
// byte-identical to the same spec run on a plain local server.
func TestDistributedCanonicalIdentity(t *testing.T) {
	// Baseline: a plain local server running every job in its own slots.
	tsLocal := newCoordinator(t, engine.DispatchOptions{})
	want := canonical(t, tsLocal, runToDone(t, tsLocal, e2eSpec, 2*time.Minute))

	// Distributed: coordinator with zero local slots + two workers, each
	// with its own engine — every experiment executes remotely.
	tsDist := newCoordinator(t, engine.DispatchOptions{LocalSlots: -1, MaxBatch: 1})
	startWorker(t, tsDist, "w1")
	startWorker(t, tsDist, "w2")
	id := runToDone(t, tsDist, e2eSpec, 2*time.Minute)
	got := canonical(t, tsDist, id)

	if !bytes.Equal(got, want) {
		t.Errorf("distributed run diverged from local run:\n--- local ---\n%s\n--- distributed ---\n%s", want, got)
	}
	if remote := metricValue(t, tsDist, `wmm_dispatch_jobs_completed_total{mode="remote"}`); remote != 2 {
		t.Errorf("remote job completions = %v, want 2", remote)
	}
	if leases := metricValue(t, tsDist, "wmm_dispatch_leases_granted_total"); leases < 2 {
		t.Errorf("leases granted = %v, want >= 2 (MaxBatch 1 across two jobs)", leases)
	}
}

// TestDistributedLitmusIdentity is the litmus-campaign acceptance
// test: a generated batch of 500 tests sharded across two worker
// processes — which regenerate their slices from shard descriptors
// alone — produces canonical JSON byte-identical to the same campaign
// executed in-process on a plain local server.
func TestDistributedLitmusIdentity(t *testing.T) {
	spec := client.LitmusSpec{
		Arch:      "armv8",
		GenSeed:   7,
		Count:     500,
		Trials:    2,
		Seed:      3,
		ShardSize: 50, // 10 shards
		Parallel:  4,
	}
	litmusToDone := func(ts *httptest.Server) string {
		t.Helper()
		cl := client.New(ts.URL)
		sub, err := cl.SubmitLitmus(context.Background(), spec)
		if err != nil {
			t.Fatalf("submit litmus: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		st, err := cl.WaitLitmus(ctx, sub.ID, 50*time.Millisecond)
		if err != nil {
			t.Fatalf("wait %s: %v", sub.ID, err)
		}
		if st.State != client.StateDone {
			t.Fatalf("campaign %s ended %s (err %q)", sub.ID, st.State, st.Error)
		}
		if st.Tests != spec.Count {
			t.Fatalf("campaign %s covered %d tests, want %d", sub.ID, st.Tests, spec.Count)
		}
		return sub.ID
	}
	canonicalLitmus := func(ts *httptest.Server, id string) []byte {
		t.Helper()
		raw, err := client.New(ts.URL).CanonicalLitmus(context.Background(), id)
		if err != nil {
			t.Fatalf("canonical litmus %s: %v", id, err)
		}
		return raw
	}

	tsLocal := newCoordinator(t, engine.DispatchOptions{})
	want := canonicalLitmus(tsLocal, litmusToDone(tsLocal))

	tsDist := newCoordinator(t, engine.DispatchOptions{LocalSlots: -1, MaxBatch: 2})
	startWorker(t, tsDist, "w1")
	startWorker(t, tsDist, "w2")
	got := canonicalLitmus(tsDist, litmusToDone(tsDist))

	if !bytes.Equal(got, want) {
		t.Errorf("distributed campaign diverged from local campaign:\n--- local ---\n%s\n--- distributed ---\n%s", want, got)
	}
	if remote := metricValue(t, tsDist, `wmm_dispatch_jobs_completed_total{mode="remote"}`); remote != 10 {
		t.Errorf("remote job completions = %v, want 10 (every shard leased out)", remote)
	}
}

// TestDistributedOptimizeIdentity is the optimizer-service acceptance
// test: a fence-strategy search whose cells (soundness gates, candidate
// measurements, sensitivity fits) are leased out to two worker
// processes — which re-derive each cell from its descriptor alone —
// assembles a canonical report byte-identical to the same spec run
// in-process on a plain local server.
func TestDistributedOptimizeIdentity(t *testing.T) {
	spec := client.OptimizeSpec{
		Platform:   "jvm",
		Arch:       "armv8",
		Strategies: []string{"jdk8-barriers", "jdk9-acqrel"},
		Samples:    3,
		FitCosts:   []int64{8, 32},
		Workload:   client.OptimizeWorkload{MaxCycles: 60_000},
		Seed:       7,
		Parallel:   2,
	}
	optimizeToDone := func(ts *httptest.Server) string {
		t.Helper()
		cl := client.New(ts.URL)
		sub, err := cl.SubmitOptimize(context.Background(), spec)
		if err != nil {
			t.Fatalf("submit optimize: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		st, err := cl.WaitOptimize(ctx, sub.ID, 50*time.Millisecond)
		if err != nil {
			t.Fatalf("wait %s: %v", sub.ID, err)
		}
		if st.State != client.StateDone {
			t.Fatalf("job %s ended %s (err %q)", sub.ID, st.State, st.Error)
		}
		if st.Best != "jdk9-acqrel" {
			t.Fatalf("job %s picked %q, want jdk9-acqrel", sub.ID, st.Best)
		}
		return sub.ID
	}
	canonicalOptimize := func(ts *httptest.Server, id string) []byte {
		t.Helper()
		raw, err := client.New(ts.URL).CanonicalOptimize(context.Background(), id)
		if err != nil {
			t.Fatalf("canonical optimize %s: %v", id, err)
		}
		return raw
	}

	tsLocal := newCoordinator(t, engine.DispatchOptions{})
	want := canonicalOptimize(tsLocal, optimizeToDone(tsLocal))

	tsDist := newCoordinator(t, engine.DispatchOptions{LocalSlots: -1, MaxBatch: 2})
	startWorker(t, tsDist, "w1")
	startWorker(t, tsDist, "w2")
	got := canonicalOptimize(tsDist, optimizeToDone(tsDist))

	if !bytes.Equal(got, want) {
		t.Errorf("distributed optimize job diverged from local:\n--- local ---\n%s\n--- distributed ---\n%s", want, got)
	}
	// 2 gates + 2 measures + 2 fits, every one leased out.
	if remote := metricValue(t, tsDist, `wmm_dispatch_jobs_completed_total{mode="remote"}`); remote != 6 {
		t.Errorf("remote job completions = %v, want 6 (every cell leased out)", remote)
	}
}

// TestLeaseExpiryRequeue kills a worker mid-batch (a zombie that leases
// jobs and never heartbeats or uploads) and verifies the coordinator
// re-queues the lost work, a healthy worker completes the run, and the
// result is still byte-identical to a local run.
func TestLeaseExpiryRequeue(t *testing.T) {
	tsLocal := newCoordinator(t, engine.DispatchOptions{})
	want := canonical(t, tsLocal, runToDone(t, tsLocal, e2eSpec, 2*time.Minute))

	tsDist := newCoordinator(t, engine.DispatchOptions{
		LocalSlots: -1,
		LeaseTTL:   300 * time.Millisecond,
	})
	cl := client.New(tsDist.URL)

	// Submit, then let the zombie grab the whole batch and vanish —
	// exactly the on-wire behaviour of a worker killed mid-execution.
	sub, err := cl.SubmitRun(context.Background(), e2eSpec)
	if err != nil {
		t.Fatal(err)
	}
	var zombieJobs int
	deadline := time.Now().Add(30 * time.Second)
	for zombieJobs == 0 {
		grant, err := cl.Lease(context.Background(), "zombie", 4)
		if err != nil {
			t.Fatalf("zombie lease: %v", err)
		}
		zombieJobs = len(grant.Jobs)
		if zombieJobs == 0 {
			if time.Now().After(deadline) {
				t.Fatal("queue never offered the zombie any jobs")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// The lease must expire and its jobs re-queue.
	deadline = time.Now().Add(30 * time.Second)
	for metricValue(t, tsDist, "wmm_dispatch_requeues_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("zombie's lease never expired into a requeue")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// A healthy worker picks up the re-queued jobs and the run completes
	// with byte-identical results — the duplicate execution is invisible.
	startWorker(t, tsDist, "healthy")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := cl.WaitRun(ctx, sub.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != client.StateDone {
		t.Fatalf("run after lost lease ended %s (err %q)", st.State, st.Error)
	}
	got := canonical(t, tsDist, sub.ID)
	if !bytes.Equal(got, want) {
		t.Errorf("run with lost lease diverged from local run:\n--- local ---\n%s\n--- relocated ---\n%s", want, got)
	}
	if expired := metricValue(t, tsDist, "wmm_dispatch_leases_expired_total"); expired < 1 {
		t.Errorf("leases expired = %v, want >= 1", expired)
	}
	if requeued := metricValue(t, tsDist, "wmm_dispatch_requeues_total"); requeued < float64(zombieJobs) {
		t.Errorf("requeues = %v, want >= %d (the zombie's batch)", requeued, zombieJobs)
	}
}

// TestWorkerLateUploadDropped verifies the finish-once guard from the
// worker's side of the wire: an upload for a lease the coordinator
// already expired answers 410 lease_gone, and the run's results are
// unaffected.
func TestWorkerLateUploadDropped(t *testing.T) {
	tsDist := newCoordinator(t, engine.DispatchOptions{
		LocalSlots: -1,
		LeaseTTL:   100 * time.Millisecond,
	})
	cl := client.New(tsDist.URL)
	sub, err := cl.SubmitRun(context.Background(), e2eSpec)
	if err != nil {
		t.Fatal(err)
	}

	var grant client.LeaseGrant
	deadline := time.Now().Add(30 * time.Second)
	for len(grant.Jobs) == 0 {
		if grant, err = cl.Lease(context.Background(), "slow", 4); err != nil {
			t.Fatal(err)
		}
		if len(grant.Jobs) == 0 {
			if time.Now().After(deadline) {
				t.Fatal("queue never offered jobs")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Outlive the TTL without heartbeating, then try to settle.
	deadline = time.Now().Add(30 * time.Second)
	for metricValue(t, tsDist, "wmm_dispatch_leases_expired_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(20 * time.Millisecond)
	}
	_, err = cl.UploadResults(context.Background(), grant.LeaseID,
		[]client.JobResult{{RunID: grant.Jobs[0].RunID, Experiment: grant.Jobs[0].Experiment, Result: []byte(`{}`)}})
	var apiErr *client.Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusGone || apiErr.Code != "lease_gone" {
		t.Fatalf("late upload: %v, want 410 lease_gone", err)
	}

	// The heartbeat path reports the same terminal condition.
	if _, err := cl.Heartbeat(context.Background(), grant.LeaseID); err == nil {
		t.Error("heartbeat on expired lease succeeded")
	}

	// The run still completes once a healthy worker appears.
	startWorker(t, tsDist, "healthy")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := cl.WaitRun(ctx, sub.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != client.StateDone {
		t.Fatalf("run ended %s (err %q)", st.State, st.Error)
	}
}
