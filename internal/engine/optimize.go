package engine

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/optimize"
)

// Optimizer jobs are the third job family the sharded backend carries:
// a fence-strategy search (internal/optimize) decomposes into cells —
// soundness gates, candidate measurements, sensitivity fits — and the
// cells fan out through the same queue, leases and workers as
// experiment jobs and litmus shards.  A cell is a pure function of its
// descriptor, so it executes byte-identically wherever it lands, and —
// unlike litmus shards — cells are content-addressed: resubmitting the
// same spec reuses the cluster result cache instead of re-measuring.

// OptimizeSpec is the body of POST /api/v1/optimize: one fence-strategy
// optimizer job (see optimize.Spec for the search parameters) plus the
// execution controls shared by every v1 job resource.
type OptimizeSpec struct {
	optimize.Spec
	// Parallel cells in flight at once (0 = server default).
	Parallel int `json:"parallel,omitempty"`
	// TimeoutMs bounds the whole job; 0 = no deadline.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// NoCache bypasses the cluster result cache: every cell executes
	// even when a prior job already measured the identical cell.
	NoCache bool `json:"nocache,omitempty"`
	// Tenant names the fair-share queue and quota bucket the job is
	// accounted to (the X-WMM-Tenant header wins; empty = "default").
	Tenant string `json:"tenant,omitempty"`
}

// withDefaults normalises the embedded search spec; the wire-level
// controls keep their zero defaults until submission resolves them.
func (sp OptimizeSpec) withDefaults() OptimizeSpec {
	sp.Spec = sp.Spec.WithDefaults()
	return sp
}

// validate checks the normalised form.
func (sp OptimizeSpec) validate() error {
	if err := sp.Spec.Validate(); err != nil {
		return err
	}
	if sp.Parallel < 0 || sp.TimeoutMs < 0 {
		return fmt.Errorf("optimize: parallel and timeout_ms must be >= 0")
	}
	return nil
}

// optimizeKind is the async-job kind of optimizer jobs.  A job runs in
// two waves: gate cells (one exhaustive litmus gate per candidate
// strategy) and then score cells (one measurement per sound survivor plus
// the sensitivity fits).
var optimizeKind = &jobKind{name: "optimize", noun: "optimize job", unit: "cells", plan: planOptimize}

// planOptimize validates a job and cuts its first wave, the gate cells.
// Admission control covers that wave; the scoring wave is sized by the
// gate's verdicts and joins the queue when it exists, like lost-lease
// requeues.
func planOptimize(body io.Reader, defaultParallel int) (jobPlan, error) {
	var spec OptimizeSpec
	if err := json.NewDecoder(body).Decode(&spec); err != nil {
		return jobPlan{}, err
	}
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return jobPlan{}, err
	}
	if spec.Parallel <= 0 {
		spec.Parallel = defaultParallel
	}
	gates, err := spec.GateCells()
	if err != nil { // defensive: validate() already resolved the candidates
		return jobPlan{}, err
	}
	ow := &optimizeWork{spec: spec, candidates: len(gates), phase: PhaseGate}
	return jobPlan{work: ow, tenant: &ow.spec.Tenant, timeoutMs: spec.TimeoutMs, size: len(gates)}, nil
}

// optimizeWork is an optimizer job's kind-specific state.
type optimizeWork struct {
	spec       OptimizeSpec
	candidates int

	phase    string // "gate" -> "measure" -> "done"
	cells    int    // cells completed so far (both waves)
	tried    int    // gate cells completed
	rejected int    // candidates the gate proved unsound
	scored   int    // measure cells completed
	best     string
	bestGeo  float64
	report   *optimize.Report
}

// Optimizer job phases reported in OptimizeStatus.Phase.
const (
	PhaseGate    = "gate"
	PhaseMeasure = "measure"
	PhaseDone    = "done"
)

// OptimizeStatus is the snapshot served by GET /api/v1/optimize/{id}.
type OptimizeStatus struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	State  string `json:"state"`
	Tenant string `json:"tenant,omitempty"`
	// Phase is where the search currently is: "gate" (soundness
	// checking), "measure" (scoring survivors), "done".
	Phase string       `json:"phase"`
	Spec  OptimizeSpec `json:"spec"`
	// Candidates is the size of the search space; Tried counts gate
	// verdicts so far, RejectedUnsound the candidates the gate refused,
	// Scored the survivors measured so far.
	Candidates      int `json:"candidates"`
	Tried           int `json:"tried"`
	RejectedUnsound int `json:"rejected_unsound"`
	Scored          int `json:"scored"`
	// Best is the best-so-far candidate by measured throughput while the
	// job runs, and the final winner once it finishes.
	Best       string     `json:"best,omitempty"`
	CellsDone  int        `json:"cells_done"`
	Error      string     `json:"error,omitempty"`
	StartedAt  time.Time  `json:"started_at"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	WallMs     int64      `json:"wall_ms"`
	// Report is the final ranked report, present once the job is done.
	Report *optimize.Report `json:"report,omitempty"`
}

func (st OptimizeStatus) jobID() string { return st.ID }

// drive runs the two waves through the dispatcher and assembles the
// report.  The first error — a cell that failed, a gate that could not
// complete its exploration, a baseline rejected as unsound — fails the
// job.  An optimizer job has no partial outcome, so it classifies on its
// error alone.
func (ow *optimizeWork) drive(ctx context.Context, s *Server, j *asyncJob) ([]*Result, func(), error) {
	rep, err := ow.search(ctx, s, j)
	return nil, func() {
		ow.report = rep
		ow.phase = PhaseDone
		if err == nil {
			ow.best = rep.Best
		}
	}, err
}

func (ow *optimizeWork) search(ctx context.Context, s *Server, j *asyncJob) (*optimize.Report, error) {
	sp := ow.spec.Spec // normalised and validated at submission
	results := map[string]optimize.CellResult{}
	wave := func(phase string, cells []optimize.Cell, reserved int) error {
		j.locked(func() { ow.phase = phase })
		jobs := make([]Job, len(cells))
		for i, cell := range cells {
			jobs[i] = Job{Name: cell.Name(), Payload: OptimizeCell(cell)}
			if !ow.spec.NoCache {
				// A cell whose spec cannot be hashed just bypasses the cache.
				jobs[i].CacheKey, _ = OptimizeCellKey(cell)
			}
		}
		rs, err := s.disp.Run(ctx, j.id, j.tenant, jobs, ow.spec.Parallel, j, reserved)
		for i, res := range rs {
			cr, derr := decodeCellResult(res, cells[i].Name())
			if derr != nil {
				if err == nil {
					err = derr
				}
				continue
			}
			results[cr.Cell] = cr
		}
		return err
	}

	gates, err := sp.GateCells()
	if err != nil {
		return nil, err
	}
	if err := wave(PhaseGate, gates, j.admitted); err != nil {
		return nil, err
	}
	sound, err := optimize.SoundNames(sp, results)
	if err != nil {
		return nil, err
	}
	if !sound[sp.Baseline] {
		// Fail before the scoring wave: without a sound baseline there is
		// nothing to rank against.
		return nil, fmt.Errorf("optimize: baseline strategy %q was rejected by the soundness gate", sp.Baseline)
	}
	score, err := sp.ScoreCells(sound)
	if err != nil {
		return nil, err
	}
	if err := wave(PhaseMeasure, score, 0); err != nil {
		return nil, err
	}
	return optimize.Assemble(sp, results)
}

// record updates the phase counters and best-so-far from a finished cell.
func (ow *optimizeWork) record(res *Result) {
	if res == nil {
		return
	}
	var cr optimize.CellResult
	decoded := res.Status == StatusOK && json.Unmarshal([]byte(res.Output), &cr) == nil
	ow.cells++
	switch {
	case strings.HasPrefix(res.Experiment, "gate/"):
		ow.tried++
		if decoded {
			sound := len(cr.Gate) > 0
			for _, g := range cr.Gate {
				sound = sound && g.Sound
			}
			if !sound {
				ow.rejected++
			}
		}
	case strings.HasPrefix(res.Experiment, "measure/"):
		ow.scored++
		if decoded && cr.Perf != nil && cr.Perf.GeoMean > ow.bestGeo {
			ow.bestGeo = cr.Perf.GeoMean
			ow.best = strings.TrimPrefix(res.Experiment, "measure/")
		}
	}
}

func (ow *optimizeWork) status(j *asyncJob, _, listing bool) jobStatus {
	st := OptimizeStatus{
		ID:              j.id,
		Kind:            optimizeKind.name,
		State:           j.state,
		Tenant:          j.tenant,
		Phase:           ow.phase,
		Spec:            ow.spec,
		Candidates:      ow.candidates,
		Tried:           ow.tried,
		RejectedUnsound: ow.rejected,
		Scored:          ow.scored,
		Best:            ow.best,
		CellsDone:       ow.cells,
		Error:           j.err,
		StartedAt:       j.started,
	}
	st.FinishedAt, st.WallMs = jobTimes(j.started, j.finished)
	if !listing { // list rows stay small; fetch the job for the report
		st.Report = ow.report
	}
	return st
}

func (ow *optimizeWork) canonical() ([]byte, error) {
	if ow.report == nil {
		return nil, nil
	}
	return ow.report.CanonicalJSON()
}

// OptimizeCellKey is the content hash of one optimizer cell: the engine
// version (gate and measurement semantics), the cell identity, and the
// normalised spec it was cut from.  Equal keys produce byte-identical
// results, so a resubmitted job's cells resolve from the result cache.
func OptimizeCellKey(cell optimize.Cell) (string, error) {
	spec, err := json.Marshal(cell.Spec)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|optimize=%s|spec=%s", EngineVersion, cell.Name(), spec)))
	return fmt.Sprintf("%x", sum), nil
}

// runOptimizeCell executes one optimizer cell, returning its outcome as
// a Result whose Output is the cell result's canonical JSON.  The error
// return is reserved for protocol-level mismatches (malformed cell or
// spec); execution failures — an exploration that exceeds its budget, a
// measurement error — are contained in the Result, exactly as for
// experiment jobs and litmus shards.
func runOptimizeCell(ctx context.Context, cell optimize.Cell) (*Result, error) {
	sp := cell.Spec.WithDefaults()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	switch cell.Kind {
	case "gate", "measure", "fit":
	default:
		return nil, fmt.Errorf("optimize: unknown cell kind %q", cell.Kind)
	}
	res := &Result{
		Experiment: cell.Name(),
		Desc:       fmt.Sprintf("optimizer %s cell (%s on %s)", cell.Kind, sp.Platform, sp.Arch),
	}
	if err := ctx.Err(); err != nil {
		res.Status = StatusCancelled
		res.Err = err.Error()
		return res, nil
	}
	cr, err := optimize.RunCell(cell)
	if err != nil {
		res.Status = StatusFailed
		res.Err = err.Error()
		return res, nil
	}
	raw, err := json.MarshalIndent(cr, "", "  ")
	if err != nil {
		res.Status = StatusFailed
		res.Err = err.Error()
		return res, nil
	}
	res.Status = StatusOK
	res.Output = string(raw)
	switch cell.Kind {
	case "gate":
		res.Measurements = len(cr.Gate)
		for _, g := range cr.Gate {
			res.Samples += g.Runs
		}
	default:
		res.Measurements = 1
		res.Samples = sp.Samples
	}
	return res, nil
}

// decodeCellResult recovers the optimizer cell outcome embedded in a
// job Result's Output, rejecting results that are not a successful
// execution of the named cell.
func decodeCellResult(res *Result, name string) (optimize.CellResult, error) {
	var cr optimize.CellResult
	if res == nil {
		return cr, fmt.Errorf("optimize: cell %s produced no result", name)
	}
	if res.Status != StatusOK {
		msg := res.Err
		if msg == "" {
			msg = res.Status
		}
		return cr, fmt.Errorf("optimize: cell %s: %s", name, msg)
	}
	if err := json.Unmarshal([]byte(res.Output), &cr); err != nil {
		return cr, fmt.Errorf("optimize: cell %s: undecodable output: %v", name, err)
	}
	if cr.Cell != name {
		return cr, fmt.Errorf("optimize: cell %s: output names cell %q", name, cr.Cell)
	}
	return cr, nil
}
