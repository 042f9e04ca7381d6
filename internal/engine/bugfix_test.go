package engine

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/arch"
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

// TestLitmusRetentionGC is the leak regression test for async jobs:
// before the sweep covered them, finished litmus campaigns (and their
// per-shard outputs) lived forever in a server with -retain set.  For
// every async-job kind, a finished job must be removed once retention
// lapses, and the removal must be visible on the kind's swept counter
// (wmm_litmus_runs_swept_total, wmm_optimize_runs_swept_total).
func TestLitmusRetentionGC(t *testing.T) {
	for _, tc := range []struct {
		kind   *jobKind
		submit func(t *testing.T, ts *httptest.Server) string
		status func(cl *client.Client, id string) error
	}{
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
			ts, api, _ := newTestServerOpts(t, ServerOptions{
				Parallel: 2, Retain: 50 * time.Millisecond, SweepEvery: time.Hour,
			})
			id := tc.submit(t, ts)

			// Drive the sweep directly at a time far past retention, so the
			// test does not depend on the background ticker.
			time.Sleep(60 * time.Millisecond)
			api.gc(time.Now().Add(time.Hour))

			if err := tc.status(testClient(ts), id); !client.IsNotFound(err) {
				t.Fatalf("finished %s still present after retention lapsed: %v", tc.kind.noun, err)
			}
			if swept := api.met.jobs[tc.kind.name].swept.Value(); swept != 1 {
				t.Errorf("%s swept counter = %v, want 1", tc.kind.name, swept)
			}
		})
	}
}
