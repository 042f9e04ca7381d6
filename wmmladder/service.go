package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/optimize"
	"repro/internal/runstore"
	"repro/wmm/client"
)

// pollInterval is the one fixed interval at which litmus and optimize jobs,
// which have no event stream, are polled to completion.  Runs end at the
// stream's "end" event instead.  (wmmctl's 250 ms default would dominate
// a cached job's latency.)
const pollInterval = 5 * time.Millisecond

// storePadding is how many copies of the pre-seeded finished runs are
// added to the store, so coordinator start-up replays a store of
// realistic size.
const storePadding = 150

// smokeOptimize is the smoke-sized optimizer spec (ARMv8 JVM, JDK8 vs
// JDK9 lowerings); its report must pick jdk9-acqrel.
func smokeOptimize(seed int64) client.OptimizeSpec {
	return client.OptimizeSpec{Platform: "jvm", Arch: "armv8",
		Strategies: []string{"jdk8-barriers", "jdk9-acqrel"}, Samples: 3, FitCosts: []int64{8, 32},
		Workload: client.OptimizeWorkload{MaxCycles: 60000}, Seed: seed, Parallel: 2}
}

// optimizeSpec is the in-process, normalised form of an optimizer job spec.
func optimizeSpec(cs client.OptimizeSpec) optimize.Spec {
	return optimize.Spec{Platform: cs.Platform, Arch: cs.Arch, Strategies: cs.Strategies,
		Samples: cs.Samples, FitCosts: cs.FitCosts, Seed: cs.Seed,
		Workload: optimize.WorkloadSpec{MaxCycles: cs.Workload.MaxCycles}}.WithDefaults()
}

// svcJob is one entry of the service job list.
type svcJob struct {
	kind   string // "run", "litmus" or "optimize"
	run    client.RunSpec
	litmus client.LitmusSpec
	opt    client.OptimizeSpec
	cached bool // a resubmission the result cache serves
}

func runSpec(exp string, seed int64) client.RunSpec {
	return client.RunSpec{Experiments: []string{exp}, Short: true, Seed: seed}
}

// serviceWorkload drives a coordinator-only wmmd (-local-slots -1) with two
// wmmworker processes over a store pre-seeded with finished runs and
// persisted result-cache entries.
type serviceWorkload struct {
	env     *runEnv
	store   string
	coord   *proc
	workers []*proc
	base    string
	cl      *client.Client
	before  []series

	pickup, remote, submit, canon, cachedMs []float64 // ms
}

func (w *serviceWorkload) rootSpan() string { return "service.pass" }

// preSeed is the seed of the pre-seeded specs.
func (w *serviceWorkload) preSeed() int64 { return 100 * w.env.variant }

// coldSeed is distinct per pass, so pass p's cold jobs miss the cache.
func (w *serviceWorkload) coldSeed(p int) int64 { return 1000*w.env.variant + int64(p) }

// jobs is pass p's fixed job list: five cold jobs (a txt3 run, a litmus
// campaign on armv8 in even passes and power7 in odd ones, two fig4 runs,
// the smoke optimize spec) interleaved with five cache-served
// resubmissions of pre-seeded specs and of this pass's own specs — a
// repeat share of 5/10.
//
// A cold job waits for an idle worker's next lease poll (every 500 ms),
// and the two workers' poll phases differ from run to run.  That wait
// dominates the short jobs, so three of the five cold jobs take over a
// second: the median cold job time then falls among them, where the wait
// is a small part, and not at the edge between short and long jobs.
func (w *serviceWorkload) jobs(p int) []svcJob {
	cs, ps := w.coldSeed(p), w.preSeed()
	lit := client.LitmusSpec{Arch: "armv8", GenSeed: cs, Count: 6, MaxThreads: 2, Trials: 4, Seed: cs}
	if p%2 == 1 {
		lit.Arch = "power7"
	}
	return []svcJob{
		{kind: "run", run: runSpec("txt3", cs)},
		{kind: "run", run: runSpec("txt3", ps), cached: true},
		{kind: "litmus", litmus: lit},
		{kind: "run", run: runSpec("txt3", cs), cached: true},
		{kind: "run", run: runSpec("fig4", cs)},
		{kind: "optimize", opt: smokeOptimize(ps), cached: true},
		{kind: "run", run: runSpec("fig4", cs+500)},
		{kind: "optimize", opt: smokeOptimize(cs)},
		{kind: "run", run: runSpec("fig4", ps), cached: true},
		{kind: "optimize", opt: smokeOptimize(cs), cached: true},
	}
}

// seedStore fills the store: a local wmmd with -data executes the
// pre-seeded specs (finished runs plus persisted cache entries), then the
// finished runs are copied storePadding times.
func (w *serviceWorkload) seedStore(ctx context.Context) error {
	p, base, _, err := startWmmd(ctx, w.env, "wmmd-seed", "-data", w.store)
	if err != nil {
		return err
	}
	cl := client.New(base)
	ps := w.preSeed()
	for _, j := range []svcJob{
		{kind: "run", run: runSpec("txt3", ps)},
		{kind: "run", run: runSpec("fig4", ps)},
		{kind: "optimize", opt: smokeOptimize(ps)},
	} {
		if _, err := w.do(ctx, cl, j, "seed", nil, 0); err != nil {
			p.stop()
			return err
		}
	}
	p.stop()

	st, err := runstore.OpenBackend(runstore.KindJSONL, w.store)
	if err != nil {
		return err
	}
	defer st.Close()
	runs, err := st.Load()
	if err != nil {
		return err
	}
	next := st.MaxSeq() + 1
	for i := 0; i < storePadding; i++ {
		r := runs[i%len(runs)]
		id := fmt.Sprintf("run-%d", next+i)
		if err := st.Begin(id, r.Spec, r.Started); err != nil {
			return err
		}
		for _, e := range r.Experiments {
			if err := st.Checkpoint(id, e.Name, e.Result); err != nil {
				return err
			}
		}
		if err := st.End(id, r.EndState, r.EndError); err != nil {
			return err
		}
	}
	return nil
}

func (w *serviceWorkload) setup(ctx context.Context) ([]time.Duration, error) {
	w.store = filepath.Join(w.env.work, "service-store")
	if err := w.seedStore(ctx); err != nil {
		return nil, fmt.Errorf("seeding store: %w", err)
	}
	var times []time.Duration
	for i := 0; i < 3; i++ {
		p, base, d, err := startWmmd(ctx, w.env, fmt.Sprintf("coordinator-%d", i),
			"-data", w.store, "-local-slots", "-1")
		if err != nil {
			return nil, err
		}
		times = append(times, d)
		if i < 2 {
			p.stop()
			continue
		}
		w.coord, w.base = p, base
	}
	for i := 0; i < 2; i++ {
		wp, err := startProc(w.env.work, fmt.Sprintf("worker-%d", i), filepath.Join(w.env.bin, "wmmworker"),
			"-coordinator", w.base, "-workers", "1", "-id", fmt.Sprintf("worker-%d", i))
		if err != nil {
			return nil, err
		}
		w.workers = append(w.workers, wp)
	}
	w.cl = client.New(w.base)
	// One cold job warms both the coordinator's and a worker's lazy
	// state before anything is timed.
	if _, err := w.do(ctx, w.cl, svcJob{kind: "run", run: runSpec("txt3", w.coldSeed(99))}, "warmup", nil, 0); err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	jobs, cached := w.jobs(0), 0
	for _, j := range jobs {
		if j.cached {
			cached++
		}
	}
	fmt.Printf("service: repeat share %d/%d; litmus and optimize jobs polled every %v\n", cached, len(jobs), pollInterval)
	var err error
	w.before, err = scrape(ctx, w.base)
	return times, err
}

// workerPoll is wmmworker's default idle interval between lease attempts.
const workerPoll = 500 * time.Millisecond

// thinkTimes returns the client's pause before each cold job of pass p:
// evenly spaced offsets in [0, workerPoll), in an order drawn from the
// seed and the pass.  Without them every cold job would be submitted at
// the same point of the idle workers' poll cycle, so one run's pickup
// waits would share one random offset.  The pauses sum to the same total
// in every pass and are not counted in the pass wall time.
func (w *serviceWorkload) thinkTimes(p, cold int) []time.Duration {
	out := make([]time.Duration, cold)
	for i := range out {
		out[i] = workerPoll * time.Duration(i) / time.Duration(cold)
	}
	rng := rand.New(rand.NewSource(w.env.seed*maxPasses + int64(p)))
	rng.Shuffle(cold, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func (w *serviceWorkload) pass(ctx context.Context, p int, tr *tracer, root int) (passResult, error) {
	var pr passResult
	jobs := w.jobs(p)
	cold := 0
	for _, j := range jobs {
		if !j.cached {
			cold++
		}
	}
	think := w.thinkTimes(p, cold)
	var paused time.Duration
	t0 := time.Now()
	for i, j := range jobs {
		if !j.cached {
			paused += think[0]
			ts := tr.begin("client.think", fmt.Sprintf("p%d-%d", p, i), root)
			err := sleepCtx(ctx, think[0])
			tr.end(ts)
			if err != nil {
				return pr, err
			}
			think = think[1:]
		}
		jt, err := w.do(ctx, w.cl, j, fmt.Sprintf("p%d-%d-%s", p, i, j.kind), tr, root)
		if err != nil {
			return pr, err
		}
		w.submit = append(w.submit, ms(jt.submit))
		w.canon = append(w.canon, ms(jt.canonical))
		switch {
		case j.cached:
			pr.cached = append(pr.cached, jt.total)
			w.cachedMs = append(w.cachedMs, ms(jt.total))
		case j.kind == "run":
			w.pickup = append(w.pickup, ms(jt.pickup))
			w.remote = append(w.remote, ms(jt.total-jt.doneWall))
			fallthrough
		default:
			pr.jobs = append(pr.jobs, jt.total)
		}
	}
	pr.wall = time.Since(t0) - paused
	return pr, nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// do runs one job from submit to checked canonical report.
func (w *serviceWorkload) do(ctx context.Context, cl *client.Client, j svcJob, job string, tr *tracer, root int) (jobTimes, error) {
	name := "service.cold." + j.kind
	if j.cached {
		name = "service.cached." + j.kind
	}
	js := tr.begin(name, job, root)
	defer tr.end(js)
	var key, canon []byte
	var jt jobTimes
	var err error
	if j.kind == "run" {
		key, _ = json.Marshal(j.run)
		jt, canon, err = runJob(ctx, cl, j.run, job, tr, js)
	} else {
		jt, canon, err = w.doPolled(ctx, cl, j, job, tr, js)
		key, _ = json.Marshal(j.opt)
		if j.kind == "litmus" {
			key, _ = json.Marshal(j.litmus)
		}
	}
	if err != nil {
		return jt, err
	}
	return jt, w.env.golden.check(j.kind+":"+string(key), canon)
}

// doPolled runs a litmus or optimize job, which have no event stream:
// it polls the job every pollInterval until it leaves the running state.
func (w *serviceWorkload) doPolled(ctx context.Context, cl *client.Client, j svcJob, job string, tr *tracer, parent int) (jobTimes, []byte, error) {
	var jt jobTimes
	t0 := time.Now()
	s := tr.begin("http.submit", job, parent)
	var sub client.Submitted
	var err error
	if j.kind == "litmus" {
		sub, err = cl.SubmitLitmus(ctx, j.litmus)
	} else {
		sub, err = cl.SubmitOptimize(ctx, j.opt)
	}
	tr.end(s)
	jt.submit = time.Since(t0)
	if err != nil {
		return jt, nil, fmt.Errorf("submit %s: %w", j.kind, err)
	}
	s = tr.begin(j.kind+".poll", job, parent)
	var state, best string
	if j.kind == "litmus" {
		var st client.LitmusStatus
		st, err = cl.WaitLitmus(ctx, sub.ID, pollInterval)
		state = st.State
	} else {
		var st client.OptimizeStatus
		st, err = cl.WaitOptimize(ctx, sub.ID, pollInterval)
		state, best = st.State, st.Best
	}
	tr.end(s)
	if err != nil {
		return jt, nil, fmt.Errorf("wait %s %s: %w", j.kind, sub.ID, err)
	}
	if state != client.StateDone {
		return jt, nil, mismatch("%s %s ended %q", j.kind, sub.ID, state)
	}
	if j.kind == "optimize" && best != "jdk9-acqrel" {
		return jt, nil, mismatch("optimize %s picked %q, want jdk9-acqrel", sub.ID, best)
	}
	c0 := time.Now()
	s = tr.begin("http.canonical", job, parent)
	var canon []byte
	if j.kind == "litmus" {
		canon, err = cl.CanonicalLitmus(ctx, sub.ID)
	} else {
		canon, err = cl.CanonicalOptimize(ctx, sub.ID)
	}
	tr.end(s)
	jt.canonical = time.Since(c0)
	jt.total = time.Since(t0)
	if err != nil {
		return jt, nil, fmt.Errorf("canonical %s %s: %w", j.kind, sub.ID, err)
	}
	return jt, canon, nil
}

func (w *serviceWorkload) peakRSS() float64 {
	t := w.coord.hwmMB() + selfHWM()
	for _, p := range w.workers {
		t += p.hwmMB()
	}
	return t
}

func (w *serviceWorkload) layers(ctx context.Context) (map[string]metric, error) {
	after, err := scrape(ctx, w.base)
	if err != nil {
		return nil, err
	}
	hits := sum(after, "wmm_resultcache_hits_total") - sum(w.before, "wmm_resultcache_hits_total")
	misses := sum(after, "wmm_resultcache_misses_total") - sum(w.before, "wmm_resultcache_misses_total")
	return map[string]metric{
		"worker.pickup_ms":                   {median(w.pickup), "ms"},
		"engine.dispatch.remote_overhead_ms": {median(w.remote), "ms"},
		"engine.http.submit_ms":              {median(w.submit), "ms"},
		"engine.http.canonical_ms":           {median(w.canon), "ms"},
		"engine.http.request_ms.p50":         {1000 * histQuantile(after, w.before, "wmm_http_request_seconds", 0.5), "ms"},
		"resultcache.hit_ratio":              {hits / (hits + misses), "ratio"},
		"cached_ms.p50":                      {quantile(w.cachedMs, 0.5), "ms"},
		"cached_ms.p90":                      {quantile(w.cachedMs, 0.9), "ms"},
	}, nil
}

func (w *serviceWorkload) close() {
	for _, p := range w.workers {
		p.stop()
	}
	w.coord.stop()
}
