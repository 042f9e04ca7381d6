// Command wmmladder is the repository benchmark: three workloads (paper,
// prove, service) run against binaries built from the checkout, with
// their outputs checked against golden digests, and an end-to-end plus
// per-layer report.  See README.md for why each workload exists.
//
//	wmmladder -bin DIR -work DIR --workload paper --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ladder.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// runEnv is what every workload needs from the command line.
type runEnv struct {
	bin     string // directory holding wmmd and wmmworker
	work    string // this run's scratch directory; its parent keeps span dumps and the storage rung's stores
	seed    int64
	variant int64 // 1..4: which recorded input set the seed selects
	golden  *golden
}

// passResult is one pass over a workload's fixed job list.
type passResult struct {
	wall   time.Duration
	jobs   []time.Duration // cold jobs: submit → checked output
	cached []time.Duration // cache-served resubmissions (service only)
}

// benchWorkload is one named benchmark workload.
type benchWorkload interface {
	// setup brings the workload up, repeating the timed part several
	// times; it returns each repetition's duration.
	setup(ctx context.Context) ([]time.Duration, error)
	// pass runs the fixed job list once, checking every output.
	// root is the pass's span (0 when untraced).
	pass(ctx context.Context, p int, tr *tracer, root int) (passResult, error)
	// peakRSS sums VmHWM (MB) over the processes doing the work.
	peakRSS() float64
	// layers reports the per-layer metrics this workload observes,
	// from the passes run so far.
	layers(ctx context.Context) (map[string]metric, error)
	// rootSpan names the per-pass root span.
	rootSpan() string
	close()
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// maxPasses bounds the passes in one run: the service workload's cold
// specs are distinct per pass and have golden digests for this many.
const maxPasses = 8

func newWorkload(name string, env *runEnv) (benchWorkload, error) {
	switch name {
	case "paper":
		return &paperWorkload{env: env}, nil
	case "prove":
		return &proveWorkload{env: env}, nil
	case "service":
		return &serviceWorkload{env: env}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper, prove or service)", name)
}

var workloadNames = []string{"paper", "prove", "service"}

func main() {
	fs := flag.NewFlagSet("wmmladder", flag.ExitOnError)
	bin := fs.String("bin", "", "directory holding the wmmd and wmmworker binaries")
	work := fs.String("work", "", "scratch directory for logs, stores and traces")
	name := fs.String("workload", "paper", "workload: paper, prove or service")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 30, "how long to measure")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer ladder")
	record := fs.String("record", "", "write the digests seen to this file instead of checking them")
	_ = fs.Parse(os.Args[1:])

	if *bin == "" || *work == "" {
		fmt.Fprintln(os.Stderr, "wmmladder: -bin and -work are required (run it through run.sh)")
		os.Exit(2)
	}
	g, err := loadGolden(*record)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wmmladder:", err)
		os.Exit(1)
	}
	env := &runEnv{bin: *bin, seed: *seed, variant: 1 + ((*seed%4)+4)%4, golden: g}
	env.work = filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(env.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "wmmladder:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(env.work)

	// A signal or the deadline cancels every call in flight; the
	// workloads then stop the processes they started.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(sigCtx, 170*time.Second)
	defer cancel()
	budget := time.Duration(*seconds) * time.Second

	var res result
	if *trace == 1 {
		res, err = runTraced(ctx, env, *name, budget)
	} else {
		res, err = runPlain(ctx, env, *name, budget)
	}
	if err == nil && *record != "" {
		err = g.save(*record)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wmmladder:", err)
		var mis *mismatchError
		if errors.As(err, &mis) {
			res.Correct = false
			res.Failed++
			res.Attempted += res.Failed
			printResult(res)
		}
		os.RemoveAll(env.work)
		os.Exit(1)
	}
	printResult(res)
}

func printResult(res result) {
	if res.Metrics == nil {
		res.Metrics = map[string]metric{}
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

// measure runs passes first, first+1, ... while another one is expected
// to end within the budget (at least one, none from limit on), returning
// them.  Projecting with three quarters of the mean pass time keeps the
// pass count the same from run to run when passes take a fixed share of
// the budget.
func measure(ctx context.Context, w benchWorkload, first, limit int, budget time.Duration, tr *tracer) ([]passResult, error) {
	var out []passResult
	start := time.Now()
	more := func() bool {
		if len(out) == 0 {
			return true
		}
		elapsed := time.Since(start)
		return elapsed+elapsed*3/time.Duration(4*len(out)) <= budget
	}
	for p := first; p < limit && more(); p++ {
		root := tr.begin(w.rootSpan(), fmt.Sprintf("pass-%d", p), 0)
		pr, err := w.pass(ctx, p, tr, root)
		tr.end(root)
		if err != nil {
			return out, err
		}
		out = append(out, pr)
	}
	return out, nil
}

// summary condenses a run's passes.  Every pass runs the same job list, so
// each job has one time per pass; its median over the passes is the job's
// typical time, which a burst of contention from other tenants of the host
// during one pass does not move.  Job percentiles are taken over the
// typical times; the makespan is their sum plus the median client time
// between jobs.
type summary struct {
	wall   float64   // estimated makespan of one pass, s
	jobs   []float64 // typical cold job times, ms
	cached []float64 // typical cache-served job times, ms
	walls  []float64 // measured pass makespans, s
}

func summarise(ps []passResult) summary {
	var s summary
	var gaps []float64
	for _, p := range ps {
		s.walls = append(s.walls, secs(p.wall))
		gap := p.wall
		for _, d := range append(append([]time.Duration(nil), p.jobs...), p.cached...) {
			gap -= d
		}
		gaps = append(gaps, secs(gap))
	}
	s.jobs = typical(ps, func(p passResult) []time.Duration { return p.jobs })
	s.cached = typical(ps, func(p passResult) []time.Duration { return p.cached })
	s.wall = (total(s.jobs)+total(s.cached))/1e3 + median(gaps)
	return s
}

// typical returns each job position's median time over the passes, in ms.
func typical(ps []passResult, jobs func(passResult) []time.Duration) []float64 {
	out := make([]float64, len(jobs(ps[0])))
	for i := range out {
		xs := make([]float64, len(ps))
		for p := range ps {
			xs[p] = ms(jobs(ps[p])[i])
		}
		out[i] = median(xs)
	}
	return out
}

func countJobs(ps []passResult) int {
	n := 0
	for _, p := range ps {
		n += len(p.jobs) + len(p.cached)
	}
	return n
}

// runPlain is the untraced run: set up, measure, report end-to-end.
func runPlain(ctx context.Context, env *runEnv, name string, budget time.Duration) (result, error) {
	w, err := newWorkload(name, env)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	setups, err := w.setup(ctx)
	if err != nil {
		return result{}, fmt.Errorf("%s setup: %w", name, err)
	}
	passes, err := measure(ctx, w, 0, maxPasses, budget, nil)
	res := result{Correct: true, Attempted: countJobs(passes)}
	if err != nil {
		return res, err
	}
	s := summarise(passes)
	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = secs(d)
	}
	fmt.Printf("%s: %d passes of %d cold and %d cached jobs, %d set-ups, seed %d (input set %d); pass walls %.3f s\n",
		name, len(passes), len(s.jobs), len(s.cached), len(setups), env.seed, env.variant, s.walls)
	res.Metrics = map[string]metric{
		"setup_s":     {median(setupS), "s"},
		"wall_s":      {s.wall, "s"},
		"job_ms.p50":  {quantile(s.jobs, 0.5), "ms"},
		"job_ms.p90":  {quantile(s.jobs, 0.9), "ms"},
		"peak_rss_mb": {w.peakRSS(), "MB"},
	}
	printMetrics(res.Metrics)
	return res, nil
}

// runTraced is the per-layer run.  The selected workload runs untraced
// and then traced for half the budget each (the difference in wall_s is
// the tracing overhead); the other two workloads run one
// pass each for the layer metrics only they observe; then the in-process
// layer probes run.
func runTraced(ctx context.Context, env *runEnv, name string, budget time.Duration) (result, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	if _, err := newWorkload(name, env); err != nil {
		return res, err
	}
	for _, wn := range workloadNames {
		w, _ := newWorkload(wn, env)
		n, err := tracedWorkload(ctx, w, wn, wn == name, budget, env, res.Metrics)
		res.Attempted += n
		w.close()
		if err != nil {
			return res, fmt.Errorf("%s: %w", wn, err)
		}
	}
	probes, err := layerProbes(ctx, env)
	if err != nil {
		return res, err
	}
	for k, v := range probes {
		res.Metrics[k] = v
	}
	res.Attempted++
	printMetrics(res.Metrics)
	return res, nil
}

func tracedWorkload(ctx context.Context, w benchWorkload, name string, selected bool, budget time.Duration,
	env *runEnv, into map[string]metric) (int, error) {
	if _, err := w.setup(ctx); err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	if !selected {
		ps, err := measure(ctx, w, 0, 1, 0, nil)
		if err != nil {
			return countJobs(ps), err
		}
		return countJobs(ps), addLayers(ctx, w, into)
	}
	plain, err := measure(ctx, w, 0, maxPasses/2, budget/2, nil)
	jobs := countJobs(plain)
	if err != nil {
		return jobs, err
	}
	plainWall := summarise(plain).wall
	tr := newTracer()
	traced, err := measure(ctx, w, len(plain), maxPasses, budget/2, tr)
	jobs += countJobs(traced)
	if err != nil {
		return jobs, err
	}
	if err := addLayers(ctx, w, into); err != nil {
		return jobs, err
	}
	tracedWall := summarise(traced).wall
	fmt.Printf("\n%s traced: %d passes, rung self time as a share of traced wall time\n", name, len(traced))
	unattributed := printRungs(os.Stdout, tr.rungs(), w.rootSpan())
	into["trace.wall_s"] = metric{tracedWall, "s"}
	into["trace.overhead_s"] = metric{tracedWall - plainWall, "s"}
	into["trace.unattributed_frac"] = metric{unattributed, "ratio"}
	path := filepath.Join(filepath.Dir(env.work), fmt.Sprintf("trace-%s-%d.json", name, env.seed))
	if err := tr.write(path); err != nil {
		return jobs, err
	}
	fmt.Printf("spans written to %s\n\n", path)
	return jobs, nil
}

func addLayers(ctx context.Context, w benchWorkload, into map[string]metric) error {
	lm, err := w.layers(ctx)
	for k, v := range lm {
		into[k] = v
	}
	return err
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-38s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
