package engine

import (
	"context"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/runstore"
	"repro/wmm/client"
)

// TestCalCacheBounded is the regression test for the unbounded
// calibration cache: a long-lived engine serving many distinct
// (profile, sizes, seed) keys must evict completed curves beyond
// CalCacheCap instead of growing forever.
func TestCalCacheBounded(t *testing.T) {
	e := New(Options{Workers: 1, CalCacheCap: 3})
	defer e.Close()
	ctx := context.Background()
	sizes := []int64{1, 8}

	const distinct = 7
	for seed := int64(1); seed <= distinct; seed++ {
		if _, err := e.Calibration(ctx, arch.ARMv8(), sizes, seed); err != nil {
			t.Fatal(err)
		}
	}
	entries, evicted := e.CalCacheSize()
	if entries > 3 {
		t.Errorf("cache holds %d entries, cap is 3", entries)
	}
	if want := distinct - 3; evicted != want {
		t.Errorf("evicted %d entries, want %d", evicted, want)
	}
	if evs := e.met.calEvictions.Value(); int(evs) != evicted {
		t.Errorf("wmm_engine_calibration_cache_evictions_total = %v, want %d", evs, evicted)
	}

	// The survivors are the most recently used keys: the latest seed must
	// still be a hit, the earliest must have been evicted (a miss).
	_, missesBefore := e.CalStats()
	if _, err := e.Calibration(ctx, arch.ARMv8(), sizes, distinct); err != nil {
		t.Fatal(err)
	}
	if _, misses := e.CalStats(); misses != missesBefore {
		t.Errorf("most recent curve was evicted (miss count %d -> %d)", missesBefore, misses)
	}
	if _, err := e.Calibration(ctx, arch.ARMv8(), sizes, 1); err != nil {
		t.Fatal(err)
	}
	if _, misses := e.CalStats(); misses != missesBefore+1 {
		t.Errorf("LRU curve still resident (miss count %d -> %d, want +1)", missesBefore, misses)
	}

	// Negative cap restores the old unbounded behaviour.
	unbounded := New(Options{Workers: 1, CalCacheCap: -1})
	defer unbounded.Close()
	for seed := int64(1); seed <= distinct; seed++ {
		if _, err := unbounded.Calibration(ctx, arch.ARMv8(), sizes, seed); err != nil {
			t.Fatal(err)
		}
	}
	if entries, evicted := unbounded.CalCacheSize(); entries != distinct || evicted != 0 {
		t.Errorf("unbounded cache: %d entries, %d evicted, want %d/0", entries, evicted, distinct)
	}
}

// TestBackoffDeterministic is the regression test for retry jitter
// drawn from the global math/rand: backoff delays now come from a
// per-engine seeded stream, so two engines with the same JitterSeed
// produce identical delay sequences and stay inside the documented
// [d/2, d] envelope.
func TestBackoffDeterministic(t *testing.T) {
	retry := RetryPolicy{Max: 3, Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond}
	mk := func(seed int64) *Engine {
		e := New(Options{Workers: 1, Retry: retry, JitterSeed: seed})
		t.Cleanup(e.Close)
		return e
	}
	seq := func(e *Engine) []time.Duration {
		var ds []time.Duration
		for attempt := 1; attempt <= 8; attempt++ {
			ds = append(ds, e.backoff(attempt))
		}
		return ds
	}

	a, b := seq(mk(7)), seq(mk(7))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at attempt %d: %v vs %v", i+1, a[i], b[i])
		}
	}

	// The envelope: attempt n targets min(Base<<(n-1), Cap), jittered
	// into [d/2, d].
	for i, got := range a {
		d := retry.Base << i
		if d > retry.Cap || d <= 0 {
			d = retry.Cap
		}
		if got < d/2 || got > d {
			t.Errorf("attempt %d backoff %v outside [%v, %v]", i+1, got, d/2, d)
		}
	}

	// A different seed draws a different jitter stream (equality of the
	// whole 8-element sequence over millisecond-scale ranges would mean
	// the seed is being ignored).
	c := seq(mk(8))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different JitterSeed produced an identical backoff sequence")
	}
}

// TestJobRetentionGC is the leak regression test for the retention
// sweep: before it covered every kind, finished litmus campaigns (and
// their per-shard outputs) lived forever in a server with -retain set.
// For every job kind, a finished job must be removed once retention
// lapses, the removal must be visible on the kind's swept counter
// (wmm_runs_swept_total, wmm_litmus_runs_swept_total,
// wmm_optimize_runs_swept_total), and a run must also leave the store so
// a restart does not resurrect it.
func TestJobRetentionGC(t *testing.T) {
	for _, tc := range []struct {
		kind   *jobKind
		submit func(t *testing.T, ts *httptest.Server) string
		status func(cl *client.Client, id string) error
	}{
		{runKind, func(t *testing.T, ts *httptest.Server) string {
			id := postRun(t, ts, `{"experiments": ["fig4"], "short": true, "samples": 1, "seed": 3}`)
			waitState(t, ts, id, 2*time.Minute)
			return id
		}, func(cl *client.Client, id string) error {
			_, err := cl.Run(context.Background(), id, false)
			return err
		}},
		{litmusKind, func(t *testing.T, ts *httptest.Server) string {
			sub := submitLitmus(t, ts, litmusSpecJSON)
			waitLitmus(t, ts, sub.ID)
			return sub.ID
		}, func(cl *client.Client, id string) error {
			_, err := cl.Litmus(context.Background(), id, false)
			return err
		}},
		{optimizeKind, func(t *testing.T, ts *httptest.Server) string {
			sub := submitOptimize(t, ts, optSpecJSON)
			waitOptimize(t, ts, sub.ID)
			return sub.ID
		}, func(cl *client.Client, id string) error {
			_, err := cl.Optimize(context.Background(), id)
			return err
		}},
	} {
		t.Run(tc.kind.name, func(t *testing.T) {
			store, err := runstore.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { store.Close() })
			// An hour's retention keeps the background sweep (every
			// minute) out of the way; the test drives gc directly at a
			// time far past it.
			ts, api, _ := newTestServerOpts(t, ServerOptions{Parallel: 2, Retain: time.Hour, Store: store})
			id := tc.submit(t, ts)
			if n := api.gc(time.Now().Add(2 * time.Hour)); n != 1 {
				t.Errorf("gc removed %d jobs, want 1", n)
			}

			if err := tc.status(testClient(ts), id); !client.IsNotFound(err) {
				t.Fatalf("finished %s still present after retention lapsed: %v", tc.kind.noun, err)
			}
			if swept := api.met.jobs[tc.kind.name].swept.Value(); swept != 1 {
				t.Errorf("%s swept counter = %v, want 1", tc.kind.name, swept)
			}
			recs, err := store.Load()
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				t.Errorf("store still replays %s after the sweep", rec.ID)
			}
		})
	}
}

// TestDispatchAssignRecordsDurableOnly is the regression test for
// assignment records leaking into the run store: every leased litmus
// shard and optimizer cell used to be written as an assign record under
// its job's ID, leaving litmus-N/optimize-N files that nothing replays
// or deletes.  Only durable kinds (runs) write assignment records;
// wmm_dispatch_assignments_total still counts every assignment.
func TestDispatchAssignRecordsDurableOnly(t *testing.T) {
	dir := t.TempDir()
	store, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	ts, api, _ := newTestServerOpts(t, ServerOptions{
		Parallel: 2, Store: store, Dispatch: DispatchOptions{LocalSlots: -1},
	})
	lit := submitLitmus(t, ts, litmusSpecJSON)
	opt := submitOptimize(t, ts, optSpecJSON)

	cl := testClient(ts)
	seen := map[string]bool{}
	granted := 0
	deadline := time.Now().Add(30 * time.Second)
	for !seen[lit.ID] || !seen[opt.ID] {
		if time.Now().After(deadline) {
			t.Fatalf("leases never covered both jobs: saw %v", seen)
		}
		grant, err := cl.Lease(context.Background(), "w1", 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range grant.Jobs {
			seen[j.RunID] = true
		}
		granted += len(grant.Jobs)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), litmusKind.name+"-") || strings.HasPrefix(e.Name(), optimizeKind.name+"-") {
			t.Errorf("store holds %s for a kind that does not persist", e.Name())
		}
	}
	if got := api.disp.met.assignments.Value(); got != float64(granted) {
		t.Errorf("wmm_dispatch_assignments_total = %v, want %d (every leased job)", got, granted)
	}
	// Cleanup (api.Shutdown) cancels both jobs; the unfinished lease is
	// written off.
}
