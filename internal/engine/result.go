package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/stats"
)

// EngineVersion participates in every result-cache content hash, so any
// change to the engine's measurement semantics (sampling, seeding,
// summarisation, driver output) must bump it — stale cached results from
// an older engine then simply stop matching instead of being served.
const EngineVersion = "wmm-engine-v8"

// ResultKey is the canonical content hash of one experiment execution:
// everything that determines the result's bytes — experiment name, sample
// schedule (fixed count or normalised adaptive rule), base seed, short
// mode, and the engine version.  Two jobs with equal keys produce
// byte-identical canonical results, which is the soundness condition for
// serving one from the other's cache entry.
func ResultKey(name string, o RunOptions) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|exp=%s|samples=%d|seed=%d|short=%t",
		EngineVersion, name, o.Samples, o.Seed, o.Short)
	if o.Adaptive != nil {
		// Normalise first so a defaulted rule and its explicit spelling
		// hash identically.
		r := o.Adaptive.WithDefaults()
		fmt.Fprintf(&sb, "|adaptive=%g:%d:%d", r.RelPrecision, r.MinSamples, r.MaxSamples)
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))
}

// Experiment result statuses.  A Result always carries one, so partial
// outcomes are explicit instead of inferred from the error string.
const (
	// StatusOK: the experiment completed and all artefacts are present.
	StatusOK = "ok"
	// StatusCancelled: the run's context was cancelled mid-experiment.
	StatusCancelled = "cancelled"
	// StatusIncomplete: the experiment failed after producing partial
	// artefacts (some tables/fits/measurements); what it did produce is
	// retained in the Result.
	StatusIncomplete = "incomplete"
	// StatusFailed: the experiment failed before producing anything.
	StatusFailed = "failed"
)

// Result is the structured outcome of one experiment: the machine-readable
// counterpart of the ASCII tables, carrying the same rows plus the fitted
// sensitivities and execution accounting.
type Result struct {
	Experiment   string                  `json:"experiment"`
	Paper        string                  `json:"paper"`
	Desc         string                  `json:"desc"`
	Status       string                  `json:"status"`
	Tables       []*report.Table         `json:"tables,omitempty"`
	Fits         []experiments.FitRecord `json:"fits,omitempty"`
	Measurements int                     `json:"measurements"`
	Samples      int                     `json:"samples"`
	WallNs       int64                   `json:"wall_ns"`
	Output       string                  `json:"output"`
	Err          string                  `json:"error,omitempty"`
	// Cache records provenance when this result was served from the
	// result cache instead of executed: "memory", "store", or
	// "singleflight".  Empty means the experiment actually ran here.
	Cache string `json:"cache,omitempty"`
}

// JSON serializes the result.
func (r *Result) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// CanonicalRunJSON serializes a run's ordered results with the
// nondeterministic execution-accounting fields zeroed.  Two runs of the
// same spec and seed — including one interrupted and resumed from a
// checkpoint, or one served from the result cache — produce byte-identical
// canonical JSON; only wall-clock timing and cache provenance can ever
// differ, and this form strips exactly those.
func CanonicalRunJSON(results []*Result) ([]byte, error) {
	canon := make([]*Result, len(results))
	for i, r := range results {
		if r == nil {
			continue
		}
		c := *r
		c.WallNs = 0
		c.Cache = ""
		canon[i] = &c
	}
	return json.MarshalIndent(canon, "", "  ")
}

// RunOptions parameterises one engine run.
type RunOptions struct {
	// Samples per measurement (0 = the drivers' defaults).
	Samples int
	// Seed is the base random seed (0 = 1).
	Seed int64
	// Short runs the reduced sweep.
	Short bool
	// Parallel is the number of experiments in flight at once; 1 (the
	// sequential schedule) if <= 0.  Whatever the schedule, results are
	// returned in request order and each experiment's output is
	// buffered separately, so the bytes are identical for any value.
	Parallel int
	// Completed carries checkpointed results from a previous attempt of
	// the same run (keyed by experiment name).  Experiments found here
	// are restored verbatim — no execution, no Sink callbacks — which,
	// combined with positional seed derivation, makes a resumed run's
	// canonical JSON byte-identical to an uninterrupted one.
	Completed map[string]*Result
	// Adaptive, when non-nil, replaces the fixed sample count with the
	// sequential stopping rule (see stats.StopRule): each measurement
	// draws samples until its CI is tight enough.  Participates in the
	// result-cache content hash.
	Adaptive *stats.StopRule
}

// AdaptiveSpec is the wire form of stats.StopRule used by the v1 API and
// job protocol.
type AdaptiveSpec struct {
	RelPrecision float64 `json:"rel_precision"`
	MinSamples   int     `json:"min_samples,omitempty"`
	MaxSamples   int     `json:"max_samples,omitempty"`
}

// Rule converts the wire form to the stats rule (nil-safe).
func (a *AdaptiveSpec) Rule() *stats.StopRule {
	if a == nil {
		return nil
	}
	return &stats.StopRule{
		RelPrecision: a.RelPrecision,
		MinSamples:   a.MinSamples,
		MaxSamples:   a.MaxSamples,
	}
}

// SpecFromRule converts a stats rule to its wire form (nil-safe).
func SpecFromRule(r *stats.StopRule) *AdaptiveSpec {
	if r == nil {
		return nil
	}
	return &AdaptiveSpec{
		RelPrecision: r.RelPrecision,
		MinSamples:   r.MinSamples,
		MaxSamples:   r.MaxSamples,
	}
}

// Sink observes a run's progress.  Callbacks may arrive from multiple
// experiment goroutines; the engine does not serialize them.
type Sink interface {
	ExperimentStarted(name string)
	ExperimentDone(r *Result)
}

// Run executes the named experiments (nil or empty = all, in paper order)
// and returns one Result per experiment, in request order.  Individual
// experiment failures are contained in their Result (with an explicit
// Status) and the first failure (in request order) is also returned as
// the run's error; the remaining experiments still execute — one failed
// experiment never poisons the rest of the run.  Cancellation stops
// scheduling and aborts in-flight experiments at their next measurement.
func (e *Engine) Run(ctx context.Context, names []string, o RunOptions, sink Sink) ([]*Result, error) {
	var exps []experiments.Experiment
	if len(names) == 0 {
		exps = experiments.All()
	} else {
		for _, name := range names {
			ex, err := experiments.ByName(name)
			if err != nil {
				return nil, err
			}
			exps = append(exps, ex)
		}
	}

	parallel := o.Parallel
	if parallel <= 0 {
		parallel = 1
	}
	if parallel > len(exps) {
		parallel = len(exps)
	}

	results := make([]*Result, len(exps))
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for i, ex := range exps {
		if prev, ok := o.Completed[ex.Name]; ok && prev != nil {
			// Restored from a checkpoint: no execution, no sink events
			// (the caller already accounted for it when it first ran).
			results[i] = prev
			continue
		}
		wg.Add(1)
		go func(i int, ex experiments.Experiment) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if sink != nil {
				sink.ExperimentStarted(ex.Name)
			}
			results[i] = e.runOne(ctx, ex, o)
			if sink != nil {
				sink.ExperimentDone(results[i])
			}
		}(i, ex)
	}
	wg.Wait()

	for _, r := range results {
		if r.Err != "" {
			return results, fmt.Errorf("%s: %s", r.Experiment, r.Err)
		}
	}
	return results, nil
}

// RunExperiment executes one named experiment through the engine's
// worker pool and calibration cache, returning its structured Result.
// This is the unit of work the sharded backend distributes: a job is
// fully determined by (name, Seed, Samples, Short) — positional seed
// derivation makes the Result byte-identical (wall time aside) in
// whichever process executes it, which is what makes remote execution
// safe to verify against a local run.
func (e *Engine) RunExperiment(ctx context.Context, name string, o RunOptions) (*Result, error) {
	ex, err := experiments.ByName(name)
	if err != nil {
		return nil, err
	}
	return e.runOne(ctx, ex, o), nil
}

// runOne executes a single experiment against the engine, buffering its
// rendered output and collecting its structured artefacts.  A panicking
// driver (or anything it calls outside the worker pool, e.g. a
// calibration) is recovered into a failed Result: fault containment at
// the experiment boundary, mirroring the worker-level containment at the
// sample boundary.
func (e *Engine) runOne(ctx context.Context, ex experiments.Experiment, o RunOptions) *Result {
	var buf bytes.Buffer
	col := &experiments.Collector{}
	opt := experiments.Options{
		Samples:  o.Samples,
		Seed:     o.Seed,
		Short:    o.Short,
		Out:      &buf,
		Ctx:      ctx,
		RT:       e,
		Collect:  col,
		Adaptive: o.Adaptive,
	}
	start := time.Now()
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				e.met.expPanics.Inc()
				err = fmt.Errorf("driver panicked: %v\n%s", r, debug.Stack())
			}
		}()
		return ex.Run(opt)
	}()
	r := &Result{
		Experiment:   ex.Name,
		Paper:        ex.Paper,
		Desc:         ex.Desc,
		Tables:       col.Tables,
		Fits:         col.Fits,
		Measurements: col.Measurements,
		Samples:      col.Samples,
		WallNs:       time.Since(start).Nanoseconds(),
		Output:       buf.String(),
	}
	if err != nil {
		r.Err = err.Error()
	}
	switch {
	case err == nil:
		r.Status = StatusOK
	case r.Canceled():
		r.Status = StatusCancelled
	case col.Measurements > 0 || len(col.Tables) > 0 || len(col.Fits) > 0:
		r.Status = StatusIncomplete
	default:
		r.Status = StatusFailed
	}
	e.met.experimentDur.Observe(time.Since(start).Seconds())
	e.met.experiments.Inc(r.Status)
	return r
}

// Canceled reports whether a result's error records a context
// cancellation or deadline (as opposed to a genuine experiment failure).
// Driver errors cross the Result boundary as strings, and %w-wrapping
// preserves the sentinel's rendering as a suffix.
func (r *Result) Canceled() bool {
	return r.Err != "" &&
		(strings.Contains(r.Err, context.Canceled.Error()) ||
			strings.Contains(r.Err, context.DeadlineExceeded.Error()))
}
