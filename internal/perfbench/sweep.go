package perfbench

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"repro/internal/engine"
	"repro/internal/resultcache"
	"repro/wmm/client"
)

// SweepReport measures the content-addressed result cache end to end:
// one server, the same multi-experiment sweep submitted twice.  The
// first pass executes every job; the second is served from the cache,
// so SecondPassSeconds is dominated by HTTP and dispatch overhead and
// Speedup is the user-visible win of deduplication.
type SweepReport struct {
	Experiments       []string `json:"experiments"`
	FirstPassSeconds  float64  `json:"first_pass_seconds"`
	SecondPassSeconds float64  `json:"second_pass_seconds"`
	Speedup           float64  `json:"speedup"`
	CacheHits         int64    `json:"cache_hits"`
	CacheMisses       int64    `json:"cache_misses"`
}

// RepeatedSweep runs the repeated-sweep scenario against an in-process
// server with an in-memory result cache, mirroring a wmmd deployment
// with -cache-entries at its default.  It fails if the two passes do
// not produce byte-identical canonical JSON — the cache must never
// trade correctness for speed.
func RepeatedSweep(short bool) (SweepReport, error) {
	rep := SweepReport{Experiments: []string{"fig4", "txt3"}}
	samples := 4
	if short {
		samples = 2
	}

	eng := engine.New(engine.Options{})
	defer eng.Close()
	cache := resultcache.New(resultcache.Options{Registry: eng.Metrics()})
	api := engine.NewServer(eng, engine.ServerOptions{
		Parallel: 2,
		Dispatch: engine.DispatchOptions{Cache: cache},
	})
	ts := httptest.NewServer(api.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()
	defer api.Shutdown(context.Background())
	cl := client.New(ts.URL)

	spec := client.RunSpec{Experiments: rep.Experiments, Short: true, Samples: samples, Seed: 3, Parallel: 2}
	pass := func() (float64, []byte, error) {
		start := time.Now()
		sub, err := cl.SubmitRun(ctx, spec)
		if err != nil {
			return 0, nil, fmt.Errorf("submit: %w", err)
		}
		st, err := cl.WaitRun(ctx, sub.ID, 5*time.Millisecond)
		if err != nil {
			return 0, nil, fmt.Errorf("wait %s: %w", sub.ID, err)
		}
		if st.State != client.StateDone {
			return 0, nil, fmt.Errorf("run %s finished %q, want done", sub.ID, st.State)
		}
		secs := time.Since(start).Seconds()
		canon, err := cl.CanonicalRun(ctx, sub.ID)
		if err != nil {
			return 0, nil, fmt.Errorf("canonical %s: %w", sub.ID, err)
		}
		return secs, canon, nil
	}

	var firstCanon, secondCanon []byte
	var err error
	if rep.FirstPassSeconds, firstCanon, err = pass(); err != nil {
		return rep, fmt.Errorf("first pass: %w", err)
	}
	if rep.SecondPassSeconds, secondCanon, err = pass(); err != nil {
		return rep, fmt.Errorf("second pass: %w", err)
	}
	if string(firstCanon) != string(secondCanon) {
		return rep, fmt.Errorf("cached pass diverged from executed pass (canonical JSON differs, %d vs %d bytes)",
			len(firstCanon), len(secondCanon))
	}

	st := cache.Stats()
	rep.CacheHits, rep.CacheMisses = st.Hits, st.Misses
	if st.Hits < int64(len(rep.Experiments)) {
		return rep, fmt.Errorf("second pass hit the cache %d times, want %d", st.Hits, len(rep.Experiments))
	}
	if rep.SecondPassSeconds > 0 {
		rep.Speedup = rep.FirstPassSeconds / rep.SecondPassSeconds
	}
	return rep, nil
}
