package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/wmm/client"
)

// paperExperiments is the paper workload's job list, one run each, in
// order: calibration (fig4), sensitivity scan + fit (fig1) and barrier
// microbenchmarks (txt3).  The kernel scans (fig7-fig9) and txt7 take
// 20-50 s each under -short, longer than a whole run, and the cheapest
// strategy comparison (txt5, 4-9 s) would cut a run to two passes; they
// are left out.
var paperExperiments = []string{"fig4", "fig1", "txt3"}

// paperWorkload submits paperExperiments to a plain local wmmd, one run
// at a time with nocache, and times each run from submit to canonical
// report.  Completion is the stream's "end" event, not a poll.
type paperWorkload struct {
	env     *runEnv
	wmmd    *proc
	base    string
	cl      *client.Client
	before  []series // /metrics at the end of setup
	expWall map[string][]float64
	over    []float64 // job time − the done event's wall_ms
	doneSum time.Duration
	wallSum time.Duration
}

func (w *paperWorkload) rootSpan() string { return "paper.pass" }

func (w *paperWorkload) setup(ctx context.Context) ([]time.Duration, error) {
	var times []time.Duration
	for i := 0; i < 3; i++ {
		p, base, d, err := startWmmd(ctx, w.env, fmt.Sprintf("wmmd-%d", i))
		if err != nil {
			return nil, err
		}
		times = append(times, d)
		if i < 2 {
			p.stop()
			continue
		}
		w.wmmd, w.base = p, base
	}
	w.cl = client.New(w.base)
	w.expWall = map[string][]float64{}
	var err error
	w.before, err = scrape(ctx, w.base)
	return times, err
}

func (w *paperWorkload) spec(exp string) client.RunSpec {
	return client.RunSpec{Experiments: []string{exp}, Short: true, Seed: w.env.variant, NoCache: true}
}

func (w *paperWorkload) pass(ctx context.Context, p int, tr *tracer, root int) (passResult, error) {
	var pr passResult
	t0 := time.Now()
	for _, exp := range paperExperiments {
		spec := w.spec(exp)
		job := fmt.Sprintf("p%d-%s", p, exp)
		js := tr.begin("paper.job", job, root)
		jt, canon, err := runJob(ctx, w.cl, spec, job, tr, js)
		tr.end(js)
		if err != nil {
			return pr, err
		}
		key, _ := json.Marshal(spec)
		if err := w.env.golden.check("run:"+string(key), canon); err != nil {
			return pr, err
		}
		pr.jobs = append(pr.jobs, jt.total)
		w.expWall[exp] = append(w.expWall[exp], secs(jt.doneWall))
		w.over = append(w.over, ms(jt.total-jt.doneWall))
		w.doneSum += jt.doneWall
	}
	pr.wall = time.Since(t0)
	w.wallSum += pr.wall
	return pr, nil
}

// jobTimes are the client-side timings of one job.
type jobTimes struct {
	total     time.Duration // submit → canonical report received
	submit    time.Duration // the submit request
	canonical time.Duration // the canonical-report request
	pickup    time.Duration // runs: submit → first "started" event
	doneWall  time.Duration // runs: the "done" events' summed wall_ms
}

// runJob submits one run, follows its stream to the "end" event and
// fetches the canonical report.
func runJob(ctx context.Context, cl *client.Client, spec client.RunSpec, job string, tr *tracer, parent int) (jobTimes, []byte, error) {
	var jt jobTimes
	t0 := time.Now()
	s := tr.begin("http.submit", job, parent)
	sub, err := cl.SubmitRun(ctx, spec)
	tr.end(s)
	jt.submit = time.Since(t0)
	if err != nil {
		return jt, nil, fmt.Errorf("submit %v: %w", spec.Experiments, err)
	}
	var endState string
	s = tr.begin("run.stream", job, parent)
	_, err = cl.WatchRun(ctx, sub.ID, func(ev client.Event) error {
		now := time.Now()
		switch ev.Event {
		case "started":
			if jt.pickup == 0 {
				jt.pickup = now.Sub(t0)
				tr.add("dispatch.pickup", job, s, t0, now)
			}
		case "done":
			wall := time.Duration(ev.WallMs) * time.Millisecond
			jt.doneWall += wall
			tr.add("experiment."+ev.Experiment, job, s, now.Add(-wall), now)
			if ev.Error != "" {
				return fmt.Errorf("experiment %s: %s", ev.Experiment, ev.Error)
			}
		case "end":
			endState = ev.State
		}
		return nil
	})
	tr.end(s)
	if err != nil {
		return jt, nil, fmt.Errorf("watch %s: %w", sub.ID, err)
	}
	if endState != client.StateDone {
		return jt, nil, mismatch("run %s %v ended %q", sub.ID, spec.Experiments, endState)
	}
	c0 := time.Now()
	s = tr.begin("http.canonical", job, parent)
	canon, err := cl.CanonicalRun(ctx, sub.ID)
	tr.end(s)
	jt.canonical = time.Since(c0)
	jt.total = time.Since(t0)
	if err != nil {
		return jt, nil, fmt.Errorf("canonical %s: %w", sub.ID, err)
	}
	return jt, canon, nil
}

func (w *paperWorkload) peakRSS() float64 { return w.wmmd.hwmMB() + selfHWM() }

func (w *paperWorkload) layers(ctx context.Context) (map[string]metric, error) {
	after, err := scrape(ctx, w.base)
	if err != nil {
		return nil, err
	}
	out := map[string]metric{}
	for _, exp := range paperExperiments {
		out["experiments."+exp+"_s"] = metric{median(w.expWall[exp]), "s"}
	}
	busy := sum(after, "wmm_engine_sample_run_seconds_sum") - sum(w.before, "wmm_engine_sample_run_seconds_sum")
	workers := sum(after, "wmm_engine_workers")
	out["engine.sample_busy_frac"] = metric{busy / (secs(w.wallSum) * workers), "ratio"}
	out["engine.dispatch.local_overhead_ms"] = metric{median(w.over), "ms"}
	cover := secs(w.doneSum) / secs(w.wallSum)
	out["paper.done_cover_frac"] = metric{cover, "ratio"}
	if cover < 0.95 {
		return out, mismatch("paper: experiment done wall times cover %.1f%% of wall time, want >= 95%%", 100*cover)
	}
	return out, nil
}

func (w *paperWorkload) close() { w.wmmd.stop() }
