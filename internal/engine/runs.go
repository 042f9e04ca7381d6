package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"time"

	"repro/internal/experiments"
)

// Experiment runs are the first job kind: a RunSpec names experiments,
// each becomes one experiment job sharded through the dispatcher, and
// the run's results are those experiments' Results in request order.
// Runs are the kind that persists (see jobKind.durable) and the kind
// that streams NDJSON progress.

// RunSpec is the body of POST /runs.
type RunSpec struct {
	// Experiments to run, in order; empty = the full evaluation in
	// paper order.
	Experiments []string `json:"experiments,omitempty"`
	// Short selects the reduced sweep.
	Short bool `json:"short"`
	// Samples per measurement (0 = driver default).
	Samples int `json:"samples,omitempty"`
	// Seed is the base random seed (0 = 1).
	Seed int64 `json:"seed,omitempty"`
	// Parallel experiments in flight (0 = server default).
	Parallel int `json:"parallel,omitempty"`
	// TimeoutMs bounds the whole run; 0 = no deadline.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Adaptive opts in to sequential stopping: each measurement draws
	// samples until its Student-t CI is tight enough (see stats.StopRule)
	// instead of the fixed count.
	Adaptive *AdaptiveSpec `json:"adaptive,omitempty"`
	// NoCache bypasses the server's result cache for this run (also
	// settable per-request with ?nocache=1): every job executes and
	// nothing is committed.
	NoCache bool `json:"nocache,omitempty"`
	// Tenant names the fair-share queue and quota bucket the run is
	// accounted to.  The X-WMM-Tenant request header takes precedence;
	// empty means "default".  Tenancy never affects result bytes — the
	// result cache deduplicates identical jobs across tenants.
	Tenant string `json:"tenant,omitempty"`
}

// Run states.
const (
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
	// StatePartial is a run that finished with a mix of successful and
	// failed experiments: the failures are contained in their Results
	// (status "failed"/"incomplete") instead of poisoning the whole run.
	StatePartial = "partial"
)

// RunStatus is the snapshot served by GET /runs/{id}.  The id / kind /
// state / tenant / started_at / finished_at header is the envelope
// shared by every v1 job resource (runs, litmus, optimize).
type RunStatus struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	State  string `json:"state"`
	Tenant string `json:"tenant,omitempty"`
	// FinishedAt is set once the run leaves the running state.
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	Spec       RunSpec    `json:"spec"`
	Total      int        `json:"total"`
	Completed  int        `json:"completed"`
	Running    []string   `json:"running,omitempty"`
	// Resumed marks a run restarted from a runstore checkpoint after a
	// server restart.
	Resumed bool `json:"resumed,omitempty"`
	// Measurements and Samples aggregate the execution accounting of
	// the experiments completed so far — the per-run counters behind
	// the engine-wide wmm_engine_* series.
	Measurements int       `json:"measurements"`
	Samples      int       `json:"samples"`
	Error        string    `json:"error,omitempty"`
	StartedAt    time.Time `json:"started_at"`
	WallMs       int64     `json:"wall_ms"`
	Results      []*Result `json:"results,omitempty"`
}

func (st RunStatus) jobID() string { return st.ID }

// event is one progress record streamed by GET /runs/{id}?stream=1.
type event struct {
	Event      string `json:"event"` // "started" | "done" | "end"
	Experiment string `json:"experiment,omitempty"`
	Error      string `json:"error,omitempty"`
	WallMs     int64  `json:"wall_ms,omitempty"`
	State      string `json:"state,omitempty"` // on "end"
	Completed  int    `json:"completed,omitempty"`
	Total      int    `json:"total,omitempty"`
}

// runKind is the job kind of experiment runs.
var runKind = &jobKind{name: "run", noun: "run", unit: "jobs", durable: true, plan: planRun}

// planRun validates a run spec.  ?nocache=1 is the per-request escape
// hatch: rerun even when an identical result is cached (e.g. to
// re-validate determinism).
func planRun(r *http.Request, defaultParallel int) (jobPlan, error) {
	var spec RunSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		return jobPlan{}, err
	}
	if spec.Samples < 0 || spec.Seed < 0 || spec.Parallel < 0 || spec.TimeoutMs < 0 {
		return jobPlan{}, errors.New("samples, seed, parallel and timeout_ms must be >= 0")
	}
	for _, name := range spec.Experiments {
		if _, err := experiments.ByName(name); err != nil {
			return jobPlan{}, err
		}
	}
	if spec.Adaptive != nil {
		if err := spec.Adaptive.Rule().Validate(); err != nil {
			return jobPlan{}, fmt.Errorf("adaptive: %v", err)
		}
	}
	if v := r.URL.Query().Get("nocache"); v == "1" || v == "true" {
		spec.NoCache = true
	}
	if spec.Parallel <= 0 {
		spec.Parallel = defaultParallel
	}
	rw := newRunWork(spec)
	return jobPlan{work: rw, spec: &rw.spec, tenant: &rw.spec.Tenant, timeoutMs: spec.TimeoutMs, size: rw.total}, nil
}

// specOrder is the request order of a spec's experiments: the names it
// listed, or the full catalogue in paper order.
func specOrder(spec RunSpec) []string {
	if len(spec.Experiments) > 0 {
		return spec.Experiments
	}
	var names []string
	for _, e := range experiments.All() {
		names = append(names, e.Name)
	}
	return names
}

// runWork is a run's kind-specific state.
type runWork struct {
	spec  RunSpec
	total int
	// restored carries checkpointed results a resumed run must not
	// re-execute (set once before the run starts, read-only after).
	restored map[string]*Result
	resumed  bool

	running map[string]bool
	results []*Result // completed experiments, in completion order
	final   []*Result // full ordered set, once the run ends
	subs    []chan event
}

func newRunWork(spec RunSpec) *runWork {
	return &runWork{spec: spec, total: len(specOrder(spec)), running: map[string]bool{}}
}

// drive executes the run: every experiment not restored from a
// checkpoint becomes one experiment job sharded through the dispatcher,
// and the checkpointed results fill in the rest, in request order.
func (rw *runWork) drive(ctx context.Context, s *Server, j *asyncJob) ([]*Result, func(), error) {
	order := specOrder(rw.spec)
	exp := ExperimentJob{
		Samples:  rw.spec.Samples,
		Seed:     rw.spec.Seed,
		Short:    rw.spec.Short,
		Adaptive: rw.spec.Adaptive.Rule(),
	}
	var jobs []Job
	for _, name := range order {
		if rw.restored[name] != nil {
			continue
		}
		job := Job{Name: name, Payload: exp}
		if !rw.spec.NoCache {
			job.CacheKey = ResultKey(name, RunOptions(exp))
		}
		jobs = append(jobs, job)
	}
	ran, err := s.disp.Run(ctx, j.id, j.tenant, jobs, rw.spec.Parallel, j, j.admitted)
	results := make([]*Result, len(order))
	for i, name := range order {
		if results[i] = rw.restored[name]; results[i] == nil {
			results[i], ran = ran[0], ran[1:]
		}
	}
	return results, func() { rw.final = results }, err
}

// endStreams ends every progress stream; a dead reader with a full
// buffer misses the event, and the close wakes it.
func (rw *runWork) endStreams(j *asyncJob) {
	rw.broadcast(event{Event: "end", State: j.state, Completed: len(rw.results), Total: rw.total})
	for _, ch := range rw.subs {
		close(ch)
	}
	rw.subs = nil
}

func (rw *runWork) started(name string) {
	rw.running[name] = true
	rw.broadcast(event{Event: "started", Experiment: name})
}

func (rw *runWork) record(res *Result) {
	delete(rw.running, res.Experiment)
	rw.results = append(rw.results, res)
	rw.broadcast(event{Event: "done", Experiment: res.Experiment, Error: res.Err,
		WallMs: res.WallNs / int64(time.Millisecond), Completed: len(rw.results), Total: rw.total})
}

// broadcast fans an event out to the stream subscribers.  The sends
// never block: a slow stream reader drops progress, never stalls the run.
func (rw *runWork) broadcast(ev event) {
	for _, ch := range rw.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

func (rw *runWork) status(j *asyncJob, withResults, _ bool) jobStatus {
	st := RunStatus{
		ID:        j.id,
		Kind:      runKind.name,
		State:     j.state,
		Tenant:    rw.spec.Tenant,
		Spec:      rw.spec,
		Total:     rw.total,
		Completed: len(rw.results),
		Resumed:   rw.resumed,
		Error:     j.err,
		StartedAt: j.started,
	}
	st.FinishedAt, st.WallMs = jobTimes(j.started, j.finished)
	for name := range rw.running {
		st.Running = append(st.Running, name)
	}
	for _, res := range rw.outcome() {
		if res != nil {
			st.Measurements += res.Measurements
			st.Samples += res.Samples
		}
	}
	if withResults || j.state != StateRunning {
		st.Results = slices.Clone(rw.outcome())
	}
	return st
}

// outcome is the run's results: the full ordered set once the run has
// ended, the completed experiments while it runs — or when a restored
// run's store held only some of them.
func (rw *runWork) outcome() []*Result {
	if rw.final != nil {
		return rw.final
	}
	return rw.results
}

// canonical is the run's CanonicalRunJSON — the byte-comparable form
// (wall times zeroed) used to verify that sharded, resumed and local
// executions of the same spec agree exactly.
func (rw *runWork) canonical() ([]byte, error) { return CanonicalRunJSON(rw.outcome()) }

// stream serves NDJSON progress: one snapshot line, then an event line
// per experiment start/finish, then an "end" line.  The snapshot and the
// subscription are taken under the job lock that every event is
// broadcast under, so each progress event appears exactly once — either
// folded into the snapshot or streamed.  Encode errors (a client that
// went away mid-write) end the stream.
func (rw *runWork) stream(w http.ResponseWriter, r *http.Request, j *asyncJob) {
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)

	ch := make(chan event, 64)
	var snapshot RunStatus
	var subscribed bool
	j.locked(func() {
		snapshot = rw.status(j, false, false).(RunStatus)
		if subscribed = j.state == StateRunning; subscribed {
			rw.subs = append(rw.subs, ch)
		}
	})
	unsubscribe := func() {
		j.locked(func() { rw.subs = slices.DeleteFunc(rw.subs, func(c chan event) bool { return c == ch }) })
	}

	if err := enc.Encode(snapshot); err != nil {
		if subscribed {
			unsubscribe()
		}
		return
	}
	if flusher != nil {
		flusher.Flush()
	}
	if !subscribed {
		enc.Encode(event{Event: "end", State: snapshot.State, Completed: snapshot.Completed, Total: snapshot.Total})
		return
	}
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if err := enc.Encode(ev); err != nil {
				unsubscribe()
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			if ev.Event == "end" {
				return
			}
		case <-r.Context().Done():
			unsubscribe()
			return
		}
	}
}

// Restore replays the run store into the server.  Finished runs (those
// with a terminal record) become queryable catalogue entries again;
// interrupted runs — a spec with no terminal record, meaning the process
// died or was shut down mid-run — are resumed from their last checkpoint.
// Positional seed derivation makes the resumed portion produce the same
// numbers it would have produced uninterrupted, so the final canonical
// JSON is byte-identical.  Call Restore once, after NewServer and before
// serving traffic.
func (s *Server) Restore() (resumed, restored int, err error) {
	if s.store == nil {
		return 0, 0, nil
	}
	recs, err := s.store.Load()
	if err != nil {
		s.met.storeErrors.Inc("load")
		return 0, 0, err
	}
	for _, rec := range recs {
		var spec RunSpec
		if derr := json.Unmarshal(rec.Spec, &spec); derr != nil {
			s.met.storeErrors.Inc("decode")
			continue
		}
		order := specOrder(spec)

		// Decode every checkpoint; an undecodable one is dropped
		// (counted), which for an interrupted run just means that
		// experiment re-executes.
		byName := make(map[string]*Result, len(rec.Experiments))
		var inOrder []*Result // checkpoint (completion) order
		for _, exp := range rec.Experiments {
			var res Result
			if derr := json.Unmarshal(exp.Result, &res); derr != nil {
				s.met.storeErrors.Inc("decode")
				continue
			}
			byName[exp.Name] = &res
			inOrder = append(inOrder, &res)
		}

		// Runs recorded before tenancy carry none and belong to the
		// default tenant.
		tenant := spec.Tenant
		if tenant == "" {
			tenant = DefaultTenant
		}
		rw := newRunWork(spec)
		j := &asyncJob{srv: s, id: rec.ID, kind: runKind, tenant: tenant, started: rec.Started, work: rw}

		if rec.EndState != "" {
			// Finished: replay into the catalogue, read-only.
			j.cancel, j.state, j.finished, j.err = func() {}, rec.EndState, rec.Finished, rec.EndError
			if j.finished.IsZero() {
				j.finished = j.started
			}
			rw.results = inOrder
			// With the complete set on disk, final carries the results in
			// request order, exactly as the live run returned them.
			if len(byName) == len(order) {
				final := make([]*Result, len(order))
				for i, name := range order {
					if final[i] = byName[name]; final[i] == nil {
						final = nil
						break
					}
				}
				rw.final = final
			}
			s.mu.Lock()
			added := s.jobs[rec.ID] == nil
			if added {
				s.addJobLocked(j)
			}
			s.mu.Unlock()
			if added {
				restored++
				s.met.runsRestored.Inc()
			}
			continue
		}

		// Interrupted: resume.  Only StatusOK checkpoints are reused;
		// failed/cancelled/incomplete experiments get a fresh attempt.
		rw.restored = make(map[string]*Result, len(byName))
		for _, res := range inOrder {
			if res.Status == StatusOK {
				rw.restored[res.Experiment] = res
				rw.results = append(rw.results, res)
			}
		}
		rw.resumed = true
		// Any deadline restarts from now: the original budget cannot be
		// reconstructed across a crash, and a fresh one errs on the side
		// of letting the run finish.
		ctx, cancel := jobContext(spec.TimeoutMs)
		j.cancel, j.state = cancel, StateRunning
		s.mu.Lock()
		if s.jobs[rec.ID] != nil || s.closed {
			s.mu.Unlock()
			cancel()
			continue
		}
		s.addJobLocked(j)
		s.active.Add(1)
		// Resumed runs bypass the running quota: abandoning checkpointed
		// work is worse than a brief overshoot after failover.
		s.tenantRunningAddLocked(tenant, 1)
		s.mu.Unlock()
		s.met.runsResumed.Inc()
		resumed++
		s.launch(ctx, j)
	}
	return resumed, restored, nil
}
