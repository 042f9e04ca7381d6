package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/litmus"
	"repro/internal/litmus/gen"
	"repro/internal/optimize"
)

// power7Heavy are the catalogue tests whose exhaustive check alone takes
// 0.7-37 s on power7 (IRIW+sync+sync 36 s, WRC+sync+addr 10 s); the prove
// pass leaves them out so that several passes fit in one run.
var power7Heavy = map[string]bool{
	"SB+sync+sync": true, "LB": true, "WRC+sync+addr": true, "IRIW+sync+sync": true,
	"R+sync+sync": true, "S": true, "S+lwsync+po": true, "2+2W": true,
}

// genCount is the size of the generated corpus (two-thread diy cycles on
// armv8: 0.05-0.6 s each; three-thread cycles and power7 take seconds to
// minutes per test).  The corpus comes from one fixed generator seed: a
// corpus per run seed would change the pass's cost with the seed, so the
// run seed permutes the order of the checks instead.
const (
	genCount = 4
	genSeed  = 1
)

// proveJob is one exhaustive check.
type proveJob struct {
	kind string // "catalogue", "gen" or "gate"
	prof *arch.Profile
	test *litmus.Test
	sp   optimize.Spec
	cand optimize.Candidate
}

func (j proveJob) name() string {
	if j.kind == "gate" {
		return j.prof.Name + "/" + j.cand.Name
	}
	return j.prof.Name + "/" + j.test.Name
}

// proveWorkload does in process what `wmmlitmus -exhaustive` does: it
// checks the litmus catalogue on armv8 (MCA) and power7 (non-MCA), a
// generated corpus and the optimizer's gate cells, one check at a time,
// in an order drawn from the run seed.
type proveWorkload struct {
	env  *runEnv
	jobs []proveJob

	runs, states int // explorer work in the last pass
	perArch      map[string]*archWork
}

type archWork struct {
	runs int
	time time.Duration
}

func (w *proveWorkload) rootSpan() string { return "prove.pass" }

// buildJobs generates the job list: the corpus generation and optimizer
// candidate resolution that make up the workload's set-up.
func (w *proveWorkload) buildJobs() ([]proveJob, error) {
	var jobs []proveJob
	for _, prof := range []*arch.Profile{arch.ARMv8(), arch.POWER7()} {
		for _, t := range litmus.Suite(prof.Name) {
			if prof.Flavor == arch.NonMCA && power7Heavy[t.Name] {
				continue
			}
			jobs = append(jobs, proveJob{kind: "catalogue", prof: prof, test: t})
		}
	}
	recs, err := gen.Generate(gen.Config{Seed: genSeed, Count: genCount, MaxThreads: 2})
	if err != nil {
		return nil, err
	}
	for _, t := range gen.BuildAll(recs) {
		jobs = append(jobs, proveJob{kind: "gen", prof: arch.ARMv8(), test: t})
	}
	for _, a := range []string{"armv8", "power7"} {
		cs := smokeOptimize(w.env.variant)
		cs.Arch = a
		osp := optimizeSpec(cs)
		if err := osp.Validate(); err != nil {
			return nil, err
		}
		cands, err := osp.Candidates()
		if err != nil {
			return nil, err
		}
		prof, err := osp.Profile()
		if err != nil {
			return nil, err
		}
		for _, c := range cands {
			jobs = append(jobs, proveJob{kind: "gate", prof: prof, sp: osp, cand: c})
		}
	}
	rng := rand.New(rand.NewSource(w.env.seed))
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs, nil
}

func (w *proveWorkload) setup(ctx context.Context) ([]time.Duration, error) {
	var times []time.Duration
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		jobs, err := w.buildJobs()
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0))
		w.jobs = jobs
	}
	return times, nil
}

func (w *proveWorkload) pass(ctx context.Context, p int, tr *tracer, root int) (passResult, error) {
	var pr passResult
	w.runs, w.states = 0, 0
	w.perArch = map[string]*archWork{}
	t0 := time.Now()
	for _, j := range w.jobs {
		if err := ctx.Err(); err != nil {
			return pr, err
		}
		s := tr.begin("explore."+j.kind+"."+j.prof.Name, j.name(), root)
		js := time.Now()
		runs, states, err := w.check(j)
		d := time.Since(js)
		tr.end(s)
		if err != nil {
			return pr, err
		}
		pr.jobs = append(pr.jobs, d)
		w.runs += runs
		w.states += states
		aw := w.perArch[j.prof.Name]
		if aw == nil {
			aw = &archWork{}
			w.perArch[j.prof.Name] = aw
		}
		aw.runs += runs
		aw.time += d
	}
	pr.wall = time.Since(t0)
	return pr, nil
}

// check runs one job and checks its verdict and, where the exploration is
// exhaustive, its outcome set.
func (w *proveWorkload) check(j proveJob) (runs, states int, err error) {
	g := w.env.golden
	switch j.kind {
	case "gate":
		outs, err := optimize.RunGate(j.sp, j.cand)
		if err != nil {
			return 0, 0, mismatch("gate %s: %v", j.name(), err)
		}
		var b strings.Builder
		for _, o := range outs {
			runs += o.Runs
			states += o.States
			fmt.Fprintf(&b, "%s sound=%v\n", o.Shape, o.Sound)
		}
		return runs, states, g.check("gate:"+j.name(), []byte(b.String()))
	case "gen":
		r := &litmus.Runner{Prof: j.prof}
		rep, err := r.Exhaustive(j.test, false)
		if err != nil {
			return 0, 0, mismatch("gen %s: %v", j.name(), err)
		}
		if !rep.Complete {
			return 0, 0, mismatch("gen %s: exploration incomplete", j.name())
		}
		return rep.Runs, rep.States, g.check("outcomes:"+j.name(), outcomeSet(rep))
	default:
		r := &litmus.Runner{Prof: j.prof}
		rep, err := r.CheckExhaustive(j.test)
		if err != nil {
			return 0, 0, mismatch("exhaustive verdict %s: %v", j.name(), err)
		}
		if j.test.Expect[j.prof.Name] != litmus.Forbidden {
			// Allowed tests stop at the first relaxed witness, so their
			// outcome set depends on search order; only the verdict is
			// checked.
			return rep.Runs, rep.States, nil
		}
		return rep.Runs, rep.States, g.check("outcomes:"+j.name(), outcomeSet(rep))
	}
}

// outcomeSet renders an exhaustive report's reachable outcomes — not its
// run and state counts, which a sound reduction may lower.
func outcomeSet(rep *litmus.ExhaustiveReport) []byte {
	var b strings.Builder
	for _, o := range rep.Outcomes {
		fmt.Fprintf(&b, "%s hit=%v relaxed=%v\n", o.Key, o.Hit, o.Relaxed)
	}
	return []byte(b.String())
}

func (w *proveWorkload) peakRSS() float64 { return selfHWM() }

func (w *proveWorkload) layers(ctx context.Context) (map[string]metric, error) {
	var total time.Duration
	for _, aw := range w.perArch {
		total += aw.time
	}
	out := map[string]metric{
		"explore.runs":         {float64(w.runs), "count"},
		"explore.states":       {float64(w.states), "count"},
		"explore.runs_per_s":   {float64(w.runs) / secs(total), "1/s"},
		"explore.states_per_s": {float64(w.states) / secs(total), "1/s"},
	}
	for name, aw := range w.perArch {
		out["explore."+name+".us_per_run"] = metric{secs(aw.time) * 1e6 / float64(aw.runs), "us"}
	}
	return out, nil
}

func (w *proveWorkload) close() {}
