package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/optimize"
	"repro/internal/runstore"
)

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

// serverRun is one submitted job.
type serverRun struct {
	id     string
	srv    *Server
	spec   RunSpec
	total  int
	cancel context.CancelFunc
	// restored carries checkpointed results a resumed run must not
	// re-execute (set once before execute starts, read-only after).
	restored map[string]*Result
	// admitted is the dispatch-queue reservation handleSubmit took for
	// this run (0 for resumed runs, which bypass admission control).
	admitted int

	mu       sync.Mutex
	state    string
	started  time.Time
	finished time.Time
	running  map[string]bool
	results  []*Result // completed experiments, in completion order
	final    []*Result // full ordered set, once the run ends
	err      string
	subs     []chan event
	resumed  bool
	// userCancelled distinguishes an explicit DELETE from a
	// shutdown-triggered cancellation: the former is a terminal outcome
	// recorded in the store, the latter leaves the run interrupted so a
	// restart resumes it.
	userCancelled bool
}

// serverMetrics are the HTTP layer's instruments.
type serverMetrics struct {
	requests   *metrics.Counter   // method, path, code
	latency    *metrics.Histogram // method, path
	runs       *metrics.Counter   // lifecycle transitions, by state
	runsActive *metrics.Gauge     // runs currently executing
	runsKept   *metrics.Gauge     // runs retained in memory
	runsSwept  *metrics.Counter   // runs removed by GC or DELETE

	checkpoints  *metrics.Counter // experiment results durably checkpointed
	storeErrors  *metrics.Counter // failed store operations, by op
	storeFenced  *metrics.Counter // store mutations refused by the fencing token
	runsResumed  *metrics.Counter // interrupted runs resumed on startup
	runsRestored *metrics.Counter // finished runs replayed into the catalogue

	assignments *metrics.Counter        // jobs assigned to remote workers
	jobs        map[string]*kindMetrics // async-job instruments, by kind
	cacheSwept  *metrics.Counter        // persisted cache entries removed by retention

	tenantRuns     *metrics.Gauge   // jobs of every kind executing, by tenant
	tenantRejected *metrics.Counter // refused submissions, by tenant and reason
}

// kindMetrics are one async-job kind's instruments.
type kindMetrics struct {
	runs  *metrics.Counter // lifecycle transitions, by state
	swept *metrics.Counter // finished jobs removed by GC or DELETE
}

func newServerMetrics(r *metrics.Registry) *serverMetrics {
	return &serverMetrics{
		requests:   r.Counter("wmm_http_requests_total", "HTTP requests served, by route and status code.", "method", "path", "code"),
		latency:    r.Histogram("wmm_http_request_seconds", "HTTP request latency, by route.", nil, "method", "path"),
		runs:       r.Counter("wmm_runs_total", "Run lifecycle transitions (submitted/done/failed/cancelled/partial).", "state"),
		runsActive: r.Gauge("wmm_runs_active", "Runs currently executing."),
		runsKept:   r.Gauge("wmm_runs_retained", "Runs held in memory (running + finished awaiting retention)."),
		runsSwept:  r.Counter("wmm_runs_swept_total", "Finished runs removed by the retention sweep or DELETE."),

		checkpoints:  r.Counter("wmm_store_checkpoints_written_total", "Experiment results durably checkpointed to the run store."),
		storeErrors:  r.Counter("wmm_store_errors_total", "Failed run-store operations, by operation.", "op"),
		storeFenced:  r.Counter("wmm_store_fenced_writes_total", "Store mutations refused by the lease fencing token (this process was deposed)."),
		runsResumed:  r.Counter("wmm_runs_resumed_total", "Interrupted runs resumed from the store on startup."),
		runsRestored: r.Counter("wmm_runs_restored_total", "Finished runs replayed from the store into the catalogue."),

		assignments: r.Counter("wmm_dispatch_assignments_total", "Experiment jobs assigned to remote workers under leases."),
		jobs: map[string]*kindMetrics{
			litmusKind.name: {
				runs:  r.Counter("wmm_litmus_runs_total", "Litmus campaign lifecycle transitions (submitted/done/failed/cancelled/partial).", "state"),
				swept: r.Counter("wmm_litmus_runs_swept_total", "Finished litmus campaigns removed by the retention sweep or DELETE."),
			},
			optimizeKind.name: {
				runs:  r.Counter("wmm_optimize_runs_total", "Optimizer job lifecycle transitions (submitted/done/failed/cancelled).", "state"),
				swept: r.Counter("wmm_optimize_runs_swept_total", "Finished optimizer jobs removed by the retention sweep or DELETE."),
			},
		},
		cacheSwept: r.Counter("wmm_resultcache_persist_swept_total", "Persisted result-cache entries removed by the retention sweep."),

		tenantRuns:     r.Gauge("wmm_tenant_runs_running", "Jobs (runs, litmus campaigns and optimizer jobs) currently executing, by tenant.", "tenant"),
		tenantRejected: r.Counter("wmm_tenant_rejected_total", "Submissions refused by admission control, by tenant and reason.", "tenant", "reason"),
	}
}

// ServerOptions configures NewServer.
type ServerOptions struct {
	// Parallel is the experiment-level concurrency used when a RunSpec
	// does not choose its own (<= 0 falls back to the engine's worker
	// count).
	Parallel int
	// Retain bounds how long a finished run stays queryable.  The
	// retention sweep removes completed runs older than this; 0 keeps
	// them forever (the pre-retention behaviour — a leak on a
	// long-lived server).
	Retain time.Duration
	// SweepEvery is the GC interval; Retain/4 clamped to [1s, 1m] if 0.
	SweepEvery time.Duration
	// Store, when non-nil, makes runs durable: specs and completed
	// experiment results are checkpointed as they happen, and Restore
	// replays them after a restart — resuming interrupted runs from
	// their last checkpoint.  A nil Store is the in-memory-only
	// behaviour.  Any runstore backend works (JSONL or segment); take
	// care to leave this nil rather than storing a typed-nil pointer.
	Store runstore.Storage
	// Dispatch configures the sharded execution backend every job runs
	// through: runs, litmus campaigns and optimizer jobs are decomposed
	// into jobs on a shared queue served by local executor slots and by
	// remote wmmworker processes leasing batches through POST
	// /api/v1/leases.  Admission control refuses submissions that would
	// overflow the queue with 429 + Retry-After.  The zero value means
	// the defaults; set Dispatch.Cache to enable content-addressed result
	// reuse.
	Dispatch DispatchOptions
	// CacheRetain bounds how long persisted result-cache entries (the
	// Store's cache/ directory) survive; the retention sweep removes
	// older ones.  0 keeps them forever.
	CacheRetain time.Duration
	// TenantMaxRunning bounds how many jobs — runs, litmus campaigns and
	// optimizer jobs alike — one tenant may have executing at once;
	// submissions beyond it are refused with 429 + Retry-After.
	// 0 = unbounded.  Resumed runs bypass the quota — losing checkpointed
	// work is worse than a brief overshoot.
	TenantMaxRunning int
	// OnFenced is called (once) when a store mutation is refused by the
	// lease fencing token (runstore.ErrFenced): another process holds a
	// newer coordinator claim, so this one must stop serving.  Under
	// -ha, wmmd wires it to the controller's NoteFenced, which deposes
	// immediately instead of waiting for the next renew tick.
	OnFenced func()
	// DisableLegacy sunsets the pre-v1 unversioned routes (/runs,
	// /experiments, ...): they answer 410 gone pointing at their v1
	// successor instead of serving.  Off by default until the
	// LegacySunset date; wmmd exposes it as -legacy-routes=off.
	DisableLegacy bool
}

// Server exposes the engine over HTTP: a queryable catalogue of
// experiments and asynchronous, cancellable runs with streamed progress.
// Wire its Handler into an http.Server (see cmd/wmmd) and call Shutdown
// before Engine.Close — it cancels in-flight runs and waits for them,
// so the engine's job channel is never closed mid-send.
type Server struct {
	eng              *Engine
	defaultParallel  int
	retain           time.Duration
	cacheRetain      time.Duration
	store            runstore.Storage
	disp             *Dispatcher
	met              *serverMetrics
	tenantMaxRunning int
	onFenced         func()
	fencedOnce       sync.Once
	disableLegacy    bool
	legacyWarn       sync.Once // one migration warning per process

	mu            sync.Mutex
	runs          map[string]*serverRun
	seq           int
	jobs          map[string]*asyncJob // litmus campaigns and optimizer jobs, by ID
	jobSeq        map[string]int       // last async-job ID issued, by kind
	tenantRunning map[string]int       // executing jobs of every kind, by tenant
	closed        bool

	active   sync.WaitGroup // one per executing run or async job
	stopOnce sync.Once
	stop     chan struct{} // closes to end the retention sweeper
}

// NewServer wraps an engine.  Its metrics land in the engine's registry.
func NewServer(eng *Engine, o ServerOptions) *Server {
	if o.Parallel <= 0 {
		o.Parallel = eng.Workers()
	}
	s := &Server{
		eng:              eng,
		defaultParallel:  o.Parallel,
		retain:           o.Retain,
		cacheRetain:      o.CacheRetain,
		store:            o.Store,
		met:              newServerMetrics(eng.Metrics()),
		tenantMaxRunning: o.TenantMaxRunning,
		onFenced:         o.OnFenced,
		disableLegacy:    o.DisableLegacy,
		runs:             map[string]*serverRun{},
		jobs:             map[string]*asyncJob{},
		jobSeq:           map[string]int{},
		tenantRunning:    map[string]int{},
		stop:             make(chan struct{}),
	}
	if s.store != nil {
		// Continue the run-N sequence past anything already on disk so
		// a restarted server never reuses an ID.
		s.seq = s.store.MaxSeq()
	}
	if o.Dispatch.OnAssign == nil {
		o.Dispatch.OnAssign = func(runID, experiment, worker string) {
			s.met.assignments.Inc()
			if s.store != nil {
				if err := s.store.Assign(runID, experiment, worker); err != nil {
					s.storeFailed("assign", err)
				}
			}
		}
	}
	s.disp = NewDispatcher(eng, o.Dispatch, o.Parallel)
	if o.Retain > 0 || (o.CacheRetain > 0 && o.Store != nil) {
		every := o.SweepEvery
		if every <= 0 {
			every = o.Retain / 4
			if every <= 0 {
				every = o.CacheRetain / 4
			}
			if every < time.Second {
				every = time.Second
			}
			if every > time.Minute {
				every = time.Minute
			}
		}
		go s.sweep(every)
	}
	return s
}

// storeFailed accounts a failed store mutation.  When the failure is
// the fencing token refusing a deposed coordinator's write, it is
// counted separately and reported upward exactly once, so the HA
// controller deposes without waiting for its next renew tick.
func (s *Server) storeFailed(op string, err error) {
	s.met.storeErrors.Inc(op)
	if errors.Is(err, runstore.ErrFenced) {
		s.met.storeFenced.Inc()
		if s.onFenced != nil {
			s.fencedOnce.Do(s.onFenced)
		}
	}
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

// tenant is the fair-share queue and quota bucket the run is accounted
// to; runs recorded before tenancy carry none and belong to the default.
func (r *serverRun) tenant() string {
	if r.spec.Tenant == "" {
		return DefaultTenant
	}
	return r.spec.Tenant
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

		if rec.EndState != "" {
			// Finished: replay into the catalogue, read-only.
			run := &serverRun{
				id:       rec.ID,
				srv:      s,
				spec:     spec,
				total:    len(order),
				cancel:   func() {},
				state:    rec.EndState,
				started:  rec.Started,
				finished: rec.Finished,
				running:  map[string]bool{},
				err:      rec.EndError,
				results:  inOrder,
			}
			if run.finished.IsZero() {
				run.finished = run.started
			}
			// With the complete set on disk, final carries the results in
			// request order, exactly as the live run returned them.
			if len(byName) == len(order) {
				final := make([]*Result, len(order))
				complete := true
				for i, name := range order {
					if final[i] = byName[name]; final[i] == nil {
						complete = false
						break
					}
				}
				if complete {
					run.final = final
				}
			}
			s.mu.Lock()
			if _, ok := s.runs[rec.ID]; !ok {
				s.runs[rec.ID] = run
				restored++
				s.met.runsKept.Set(float64(len(s.runs)))
				s.mu.Unlock()
				s.met.runsRestored.Inc()
			} else {
				s.mu.Unlock()
			}
			continue
		}

		// Interrupted: resume.  Only StatusOK checkpoints are reused;
		// failed/cancelled/incomplete experiments get a fresh attempt.
		completed := make(map[string]*Result, len(byName))
		var kept []*Result
		for _, res := range inOrder {
			if res.Status == StatusOK {
				completed[res.Experiment] = res
				kept = append(kept, res)
			}
		}
		// Any deadline restarts from now: the original budget cannot be
		// reconstructed across a crash, and a fresh one errs on the side
		// of letting the run finish.
		ctx, cancel := jobContext(spec.TimeoutMs)
		run := &serverRun{
			id:       rec.ID,
			srv:      s,
			spec:     spec,
			total:    len(order),
			cancel:   cancel,
			restored: completed,
			state:    StateRunning,
			started:  rec.Started,
			running:  map[string]bool{},
			results:  kept,
			resumed:  true,
		}
		s.mu.Lock()
		if _, ok := s.runs[rec.ID]; ok || s.closed {
			s.mu.Unlock()
			cancel()
			continue
		}
		s.runs[rec.ID] = run
		s.active.Add(1)
		// Resumed runs bypass the running quota: abandoning checkpointed
		// work is worse than a brief overshoot after failover.
		s.tenantRunningAddLocked(run.tenant(), 1)
		s.met.runsKept.Set(float64(len(s.runs)))
		s.mu.Unlock()
		s.met.runsActive.Add(1)
		s.met.runsResumed.Inc()
		resumed++
		go s.execute(ctx, run)
	}
	return resumed, restored, nil
}

// sweep periodically garbage-collects finished runs past retention.
func (s *Server) sweep(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.gc(time.Now())
		case <-s.stop:
			return
		}
	}
}

// gc removes finished runs and async jobs whose retention has lapsed
// (and persisted cache entries past their own retention), returning how
// many runs were removed.
func (s *Server) gc(now time.Time) int {
	var victims []string
	if s.retain > 0 {
		cutoff := now.Add(-s.retain)
		s.mu.Lock()
		for id, run := range s.runs {
			run.mu.Lock()
			expired := run.state != StateRunning && run.finished.Before(cutoff)
			run.mu.Unlock()
			if expired {
				victims = append(victims, id)
			}
		}
		for _, id := range victims {
			delete(s.runs, id)
		}
		// Async jobs age out under the same retention; being in-memory
		// only, no store cleanup is involved — but the sweep is counted
		// per kind so a leak here is observable.
		var swept []*asyncJob
		for id, j := range s.jobs {
			j.mu.Lock()
			expired := j.state != StateRunning && j.finished.Before(cutoff)
			j.mu.Unlock()
			if expired {
				delete(s.jobs, id)
				swept = append(swept, j)
			}
		}
		s.met.runsKept.Set(float64(len(s.runs)))
		s.mu.Unlock()
		if len(victims) > 0 {
			s.met.runsSwept.Add(float64(len(victims)))
		}
		for _, j := range swept {
			s.met.jobs[j.kind.name].swept.Inc()
		}
		// Expired runs leave the store too, or they would resurrect at the
		// next restart.
		if s.store != nil {
			for _, id := range victims {
				if err := s.store.Delete(id); err != nil {
					s.storeFailed("delete", err)
				}
			}
		}
	}
	// Persisted cache entries age out under their own (typically longer)
	// retention: reuse is most valuable across restarts, but the cache/
	// directory must not grow forever either.
	if s.store != nil && s.cacheRetain > 0 {
		if swept := s.store.CacheSweep(now.Add(-s.cacheRetain)); swept > 0 {
			s.met.cacheSwept.Add(float64(swept))
		}
	}
	return len(victims)
}

// Shutdown stops accepting new jobs, cancels every in-flight run and
// async job, and waits (bounded by ctx) for their executor goroutines
// to finish.  After it returns nil, no run is mid-Measure, so
// Engine.Close is safe.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	cancels := make([]context.CancelFunc, 0, len(s.runs)+len(s.jobs))
	for _, run := range s.runs {
		cancels = append(cancels, run.cancel)
	}
	for _, j := range s.jobs {
		cancels = append(cancels, j.cancel)
	}
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stop) })
	for _, cancel := range cancels {
		cancel()
	}
	// The cancellations above resolve every outstanding dispatch job, so
	// the executor slots and reaper can stop.
	s.disp.Close()
	done := make(chan struct{})
	go func() {
		s.active.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Handler returns the wmmd API.  The versioned surface is:
//
//	GET    /api/v1/experiments   the experiment catalogue (paginated)
//	POST   /api/v1/runs          submit a run (RunSpec), returns {"id": ...};
//	                             429 + Retry-After under saturation
//	GET    /api/v1/runs          run statuses (paginated: ?limit=&after=)
//	GET    /api/v1/runs/{id}     status; ?results=1 includes results while
//	                             running; ?stream=1 streams NDJSON progress;
//	                             ?canonical=1 serves canonical run JSON
//	DELETE /api/v1/runs/{id}     cancel a running run / remove a finished one
//	POST   /api/v1/litmus        submit a generated litmus campaign (LitmusSpec)
//	GET    /api/v1/litmus        campaign statuses
//	GET    /api/v1/litmus/{id}   campaign status; ?canonical=1 serves canonical
//	                             shard-result JSON
//	DELETE /api/v1/litmus/{id}   cancel / remove a campaign
//	POST   /api/v1/optimize      submit a fence-strategy optimizer job
//	                             (OptimizeSpec)
//	GET    /api/v1/optimize      optimizer job statuses (paginated)
//	GET    /api/v1/optimize/{id} job status; ?canonical=1 serves the
//	                             canonical report JSON
//	DELETE /api/v1/optimize/{id} cancel / remove an optimizer job
//	POST   /api/v1/leases        worker job lease: a batch of experiment,
//	                             litmus-shard and optimizer-cell jobs
//	POST   /api/v1/leases/{id}/heartbeat   renew a lease
//	POST   /api/v1/leases/{id}/results     upload a lease's results
//
// plus the unversioned operational routes (/healthz, /readyz, /metrics)
// and the legacy unversioned API (/experiments, /runs, /runs/{id}),
// kept as thin shims over the v1 handlers that add Deprecation and
// Sunset headers (410 gone under ServerOptions.DisableLegacy).  The
// registration is driven by routeTable (routes.go), the same table
// that renders docs/api-v1.json; unknown v1 routes and wrong methods
// answer 404/405 in the uniform error envelope {"error": {"code",
// "message"}} carried by every non-2xx response.
//
// Every route is instrumented: wmm_http_requests_total and
// wmm_http_request_seconds, labelled by route pattern (not raw path, so
// run IDs do not explode the cardinality).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routeTable {
		h := rt.handler(s)
		if rt.Legacy {
			h = s.deprecated(rt.Successor, h)
		}
		mux.HandleFunc(rt.Method+" "+rt.Path, h)
	}
	// Method-less catch-all: anything under /api/v1/ the table did not
	// match falls through here instead of Go's plain-text 404/405, so
	// even "no such route" and "wrong method" answer in the error
	// envelope (with an Allow header computed from the table).
	mux.HandleFunc("/api/v1/", s.handleV1Fallback)
	return s.instrument(mux)
}

// statusWriter records the response code for instrumentation while
// passing Flush through to streaming handlers.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap supports http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps the mux with request counting and latency recording,
// labelled by the matched route pattern.
func (s *Server) instrument(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		mux.ServeHTTP(sw, r)
		path := r.Pattern
		if i := strings.IndexByte(path, ' '); i >= 0 {
			path = path[i+1:]
		}
		if path == "" {
			path = "unmatched"
		}
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		s.met.requests.Inc(r.Method, path, strconv.Itoa(code))
		s.met.latency.Observe(time.Since(start).Seconds(), r.Method, path)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// API error codes, the machine-readable half of the uniform error
// envelope {"error": {"code", "message"}} carried by every non-2xx
// response on both the v1 and legacy surfaces.
const (
	ErrCodeInvalidArgument = "invalid_argument" // malformed body, bad spec, bad query
	ErrCodeNotFound        = "not_found"        // unknown run id
	ErrCodeConflict        = "conflict"         // state precludes the request (e.g. canonical of a running run)
	ErrCodeSaturated       = "saturated"        // admission control refused the run (429 + Retry-After)
	ErrCodeUnavailable     = "unavailable"      // shutting down, deposed, or an HA standby
	ErrCodeLeaseGone       = "lease_gone"       // lease expired or unknown; batch already re-queued

	ErrCodeMethodNotAllowed = "method_not_allowed" // route exists, verb does not (405 + Allow)
	ErrCodeGone             = "gone"               // legacy route sunset by -legacy-routes=off
)

func writeErr(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, map[string]any{"error": map[string]string{
		"code":    code,
		"message": fmt.Sprintf(format, args...),
	}})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "workers": s.eng.Workers()})
}

// handleReadyz is readiness, distinct from liveness: the process can be
// alive (healthz 200) while unable to take useful work — mid-shutdown,
// or with an unwritable run store.  Load balancers and operators gate
// traffic on this.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	out := map[string]any{"engine": "ok", "store": "ok"}
	ready := true
	if closed || s.eng.Closed() {
		ready = false
		out["engine"] = "shutting down"
	}
	if s.store == nil {
		out["store"] = "disabled"
	} else if err := s.store.Ping(); err != nil {
		ready = false
		out["store"] = err.Error()
	}
	// An embedded Server is always the leader; the HA wrapper answers
	// /readyz itself (role "standby") until it promotes and delegates here.
	out["role"] = "leader"
	out["ready"] = ready
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, out)
}

// pageParams reads the cursor-pagination query (?limit=&after=).  limit
// defaults to 100 and is capped at 1000; after is the exclusive cursor
// (the last item of the previous page).  ok=false means the query was
// malformed and the envelope has been written.
func pageParams(w http.ResponseWriter, r *http.Request) (limit int, after string, ok bool) {
	limit = 100
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			writeErr(w, http.StatusBadRequest, ErrCodeInvalidArgument, "limit must be a positive integer, got %q", raw)
			return 0, "", false
		}
		limit = n
	}
	if limit > 1000 {
		limit = 1000
	}
	return limit, r.URL.Query().Get("after"), true
}

// page is the v1 list envelope: one page of items plus the cursor for
// the next page ("" when this page is the last).
type page[T any] struct {
	Items     []T    `json:"items"`
	NextAfter string `json:"next_after,omitempty"`
}

// writeJobPage serves one page of a job listing — the shared shape of
// every v1 job resource (runs, litmus, optimize): items sorted in
// submission order by ID, cursor-paginated with ?limit=&after= and
// wrapped in the {"items", "next_after"} envelope.  A malformed query
// has its error envelope written here.
func writeJobPage[T any](w http.ResponseWriter, r *http.Request, items []T, id func(T) string) {
	sort.Slice(items, func(i, j int) bool { return runIDLess(id(items[i]), id(items[j])) })
	limit, after, ok := pageParams(w, r)
	if !ok {
		return
	}
	start := 0
	if after != "" {
		for i := range items {
			if !runIDLess(after, id(items[i])) {
				start = i + 1
			}
		}
	}
	pg := page[T]{Items: []T{}}
	end := start + limit
	if end > len(items) {
		end = len(items)
	}
	if start < len(items) {
		pg.Items = items[start:end]
	}
	if end < len(items) {
		pg.NextAfter = id(items[end-1])
	}
	writeJSON(w, http.StatusOK, pg)
}

// ExperimentInfo is one catalogue entry served by GET /api/v1/experiments.
type ExperimentInfo struct {
	Name  string `json:"name"`
	Paper string `json:"paper"`
	Desc  string `json:"desc"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request, legacy bool) {
	all := make([]ExperimentInfo, 0, len(experiments.All()))
	for _, e := range experiments.All() {
		all = append(all, ExperimentInfo{Name: e.Name, Paper: e.Paper, Desc: e.Desc})
	}
	if legacy {
		writeJSON(w, http.StatusOK, all)
		return
	}
	limit, after, ok := pageParams(w, r)
	if !ok {
		return
	}
	start := 0
	if after != "" {
		for i, e := range all {
			if e.Name == after {
				start = i + 1
				break
			}
		}
	}
	out := page[ExperimentInfo]{Items: []ExperimentInfo{}}
	end := start + limit
	if end > len(all) {
		end = len(all)
	}
	if start < len(all) {
		out.Items = all[start:end]
	}
	if end < len(all) {
		out.NextAfter = all[end-1].Name
	}
	writeJSON(w, http.StatusOK, out)
}

// TenantHeader carries the tenant on API requests; it wins over the
// spec's tenant field so operators can route through proxies that stamp
// identity without rewriting bodies.
const TenantHeader = "X-WMM-Tenant"

// resolveTenant picks the effective tenant for a submission: header,
// then spec field, then DefaultTenant.  ok=false means the name was
// invalid and the error envelope has been written.
func resolveTenant(w http.ResponseWriter, r *http.Request, specTenant string) (string, bool) {
	tenant := r.Header.Get(TenantHeader)
	if tenant == "" {
		tenant = specTenant
	}
	if tenant == "" {
		return DefaultTenant, true
	}
	if len(tenant) > 64 {
		writeErr(w, http.StatusBadRequest, ErrCodeInvalidArgument,
			"tenant name longer than 64 characters")
		return "", false
	}
	for _, c := range tenant {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			writeErr(w, http.StatusBadRequest, ErrCodeInvalidArgument,
				"tenant name %q: only [A-Za-z0-9._-] allowed", tenant)
			return "", false
		}
	}
	return tenant, true
}

// tenantAdmitRunning enforces the per-tenant running-run quota and, when
// admitted, counts the run.  Callers must hold s.mu.
func (s *Server) tenantAdmitRunningLocked(tenant string) bool {
	if s.tenantMaxRunning > 0 && s.tenantRunning[tenant] >= s.tenantMaxRunning {
		return false
	}
	s.tenantRunningAddLocked(tenant, 1)
	return true
}

func (s *Server) tenantRunningAddLocked(tenant string, d int) {
	n := s.tenantRunning[tenant] + d
	if n <= 0 {
		n = 0
		delete(s.tenantRunning, tenant)
	} else {
		s.tenantRunning[tenant] = n
	}
	s.met.tenantRuns.Set(float64(n), tenant)
}

func (s *Server) tenantRunningDone(tenant string) {
	s.mu.Lock()
	s.tenantRunningAddLocked(tenant, -1)
	s.mu.Unlock()
}

// writeSaturated is the shared 429 envelope for queue and quota
// refusals: Retry-After plus the standard error body.
func (s *Server) writeSaturated(w http.ResponseWriter, format string, args ...any) {
	retry := 1
	if r := int(s.disp.RetryAfter().Seconds()); r > retry {
		retry = r
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	args = append(args, retry)
	writeErr(w, http.StatusTooManyRequests, ErrCodeSaturated, format+"; retry after %ds", args...)
}

// jobContext is a job's execution context: bounded by timeoutMs when it
// is positive, cancellable either way.
func jobContext(timeoutMs int64) (context.Context, context.CancelFunc) {
	if timeoutMs > 0 {
		return context.WithTimeout(context.Background(), time.Duration(timeoutMs)*time.Millisecond)
	}
	return context.WithCancel(context.Background())
}

// admitJob is the submit preamble shared by every job kind.  Admission
// control first refuses work the dispatch queue cannot absorb — globally
// or within the tenant's quota — with a Retry-After hint, before anything
// is recorded: the reservation covers the job's first n dispatch jobs
// (unit names them in the refusal) and is released job by job as they
// finish.  Then, under s.mu, a closing server or a tenant already at its
// running-jobs quota is refused; otherwise register records the job with
// the cancel of the returned context.  A refusal releases what was taken
// and writes its envelope (ok=false).
func (s *Server) admitJob(w http.ResponseWriter, tenant, unit string, n int, timeoutMs int64, register func(context.CancelFunc)) (ctx context.Context, ok bool) {
	switch err := s.disp.TryAdmit(tenant, n); err {
	case nil:
	case ErrTenantSaturated:
		s.writeSaturated(w, "tenant %q queue quota exceeded (%d %s refused)", tenant, n, unit)
		return nil, false
	default:
		s.writeSaturated(w, "dispatch queue saturated (%d %s refused)", n, unit)
		return nil, false
	}
	ctx, cancel := jobContext(timeoutMs)
	s.mu.Lock()
	closed := s.closed
	if !closed && s.tenantAdmitRunningLocked(tenant) {
		register(cancel)
		s.active.Add(1)
		s.mu.Unlock()
		return ctx, true
	}
	s.mu.Unlock()
	cancel()
	s.disp.admitForce(tenant, -n)
	if closed {
		writeErr(w, http.StatusServiceUnavailable, ErrCodeUnavailable, "server shutting down")
	} else {
		s.met.tenantRejected.Inc(tenant, "tenant_running")
		s.writeSaturated(w, "tenant %q already has %d jobs executing", tenant, s.tenantMaxRunning)
	}
	return nil, false
}

// finalState classifies a finished job of any kind: done without an
// error; otherwise cancelled when its context ended or a result was
// cancelled, partial when some result succeeded, failed when none did.
func finalState(ctx context.Context, err error, results []*Result) string {
	switch {
	case err == nil:
		return StateDone
	case ctx.Err() != nil || anyCanceled(results):
		return StateCancelled
	case anyOK(results):
		return StatePartial
	default:
		return StateFailed
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec RunSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodeInvalidArgument, "bad run spec: %v", err)
		return
	}
	if spec.Samples < 0 || spec.Seed < 0 || spec.Parallel < 0 || spec.TimeoutMs < 0 {
		writeErr(w, http.StatusBadRequest, ErrCodeInvalidArgument,
			"bad run spec: samples, seed, parallel and timeout_ms must be >= 0")
		return
	}
	for _, name := range spec.Experiments {
		if _, err := experiments.ByName(name); err != nil {
			writeErr(w, http.StatusBadRequest, ErrCodeInvalidArgument, "%v", err)
			return
		}
	}
	if spec.Adaptive != nil {
		if err := spec.Adaptive.Rule().Validate(); err != nil {
			writeErr(w, http.StatusBadRequest, ErrCodeInvalidArgument, "bad adaptive spec: %v", err)
			return
		}
	}
	// ?nocache=1 is the per-request escape hatch: rerun even when an
	// identical result is cached (e.g. to re-validate determinism).
	if v := r.URL.Query().Get("nocache"); v == "1" || v == "true" {
		spec.NoCache = true
	}
	if spec.Parallel <= 0 {
		spec.Parallel = s.defaultParallel
	}
	tenant, ok := resolveTenant(w, r, spec.Tenant)
	if !ok {
		return
	}
	spec.Tenant = tenant // persist and echo the effective tenant

	total := len(specOrder(spec))
	var run *serverRun
	ctx, ok := s.admitJob(w, tenant, "jobs", total, spec.TimeoutMs, func(cancel context.CancelFunc) {
		s.seq++
		run = &serverRun{
			id:       fmt.Sprintf("run-%d", s.seq),
			srv:      s,
			spec:     spec,
			total:    total,
			cancel:   cancel,
			admitted: total,
			state:    StateRunning,
			started:  time.Now(),
			running:  map[string]bool{},
		}
		s.runs[run.id] = run
		s.met.runsKept.Set(float64(len(s.runs)))
	})
	if !ok {
		return
	}

	// Persist the spec before any work happens, so a crash at any later
	// point leaves a resumable record.  Durability is best-effort: a
	// store failure degrades to the in-memory behaviour and is counted —
	// except a *fenced* write, which proves another coordinator owns the
	// store: that refuses the run outright, because work accepted here
	// could never be recorded and this process is about to exit.
	if s.store != nil {
		raw, err := json.Marshal(spec)
		if err == nil {
			err = s.store.Begin(run.id, raw, run.started)
		}
		if err != nil {
			s.storeFailed("begin", err)
			if errors.Is(err, runstore.ErrFenced) {
				s.mu.Lock()
				delete(s.runs, run.id)
				s.met.runsKept.Set(float64(len(s.runs)))
				s.tenantRunningAddLocked(tenant, -1)
				s.mu.Unlock()
				s.active.Done()
				run.cancel()
				s.disp.admitForce(tenant, -total)
				writeErr(w, http.StatusServiceUnavailable, ErrCodeUnavailable,
					"coordinator deposed: run store is fenced at a newer lease term")
				return
			}
		}
	}
	s.met.runs.Inc("submitted")
	s.met.runsActive.Add(1)

	go s.execute(ctx, run)
	writeJSON(w, http.StatusAccepted, map[string]any{"id": run.id, "state": StateRunning, "total": total})
}

// execute drives the run to completion on its own goroutine: every
// experiment not restored from a checkpoint becomes one experiment job
// sharded through the dispatcher, and the checkpointed results fill in
// the rest, in request order.
func (s *Server) execute(ctx context.Context, run *serverRun) {
	defer s.active.Done()
	defer run.cancel()
	tenant := run.tenant()
	defer s.tenantRunningDone(tenant)

	order := specOrder(run.spec)
	exp := ExperimentJob{
		Samples:  run.spec.Samples,
		Seed:     run.spec.Seed,
		Short:    run.spec.Short,
		Adaptive: run.spec.Adaptive.Rule(),
	}
	var jobs []Job
	for _, name := range order {
		if run.restored[name] != nil {
			continue
		}
		job := Job{Name: name, Payload: exp}
		if !run.spec.NoCache {
			job.CacheKey = ResultKey(name, RunOptions(exp))
		}
		jobs = append(jobs, job)
	}
	ran, err := s.disp.Run(ctx, run.id, tenant, jobs, run.spec.Parallel, (*runSink)(run), run.admitted)
	results := make([]*Result, len(order))
	for i, name := range order {
		if results[i] = run.restored[name]; results[i] == nil {
			results[i], ran = ran[0], ran[1:]
		}
	}

	run.mu.Lock()
	run.final = results
	run.finished = time.Now()
	run.state = finalState(ctx, err, results)
	if err != nil {
		run.err = err.Error()
	}
	state, errMsg, userCancelled := run.state, run.err, run.userCancelled
	ev := event{Event: "end", State: run.state, Completed: len(run.results), Total: run.total}
	subs := run.subs
	run.subs = nil
	run.mu.Unlock()
	s.met.runs.Inc(state)
	s.met.runsActive.Add(-1)

	// Record the terminal state — except for a shutdown-triggered
	// cancellation, which deliberately leaves the run interrupted in the
	// store so the next startup resumes it from its checkpoints.  An
	// explicit DELETE is a user decision and stays terminal.
	if s.store != nil {
		s.mu.Lock()
		closing := s.closed
		s.mu.Unlock()
		if state != StateCancelled || userCancelled || !closing {
			if err := s.store.End(run.id, state, errMsg); err != nil {
				s.storeFailed("end", err)
			}
		}
	}

	for _, ch := range subs {
		select {
		case ch <- ev:
		default: // dead reader with a full buffer; the close wakes it
		}
		close(ch)
	}
}

func anyCanceled(rs []*Result) bool {
	for _, r := range rs {
		if r != nil && r.Canceled() {
			return true
		}
	}
	return false
}

func anyOK(rs []*Result) bool {
	for _, r := range rs {
		if r != nil && r.Status == StatusOK {
			return true
		}
	}
	return false
}

// runSink adapts a serverRun to the engine's progress Sink.
type runSink serverRun

func (rs *runSink) ExperimentStarted(name string) {
	r := (*serverRun)(rs)
	r.broadcast(func() event {
		r.running[name] = true
		return event{Event: "started", Experiment: name}
	})
}

func (rs *runSink) ExperimentDone(res *Result) {
	r := (*serverRun)(rs)
	r.broadcast(func() event {
		delete(r.running, res.Experiment)
		r.results = append(r.results, res)
		return event{Event: "done", Experiment: res.Experiment, Error: res.Err,
			WallMs: res.WallNs / int64(time.Millisecond), Completed: len(r.results), Total: r.total}
	})
	r.checkpoint(res)
}

// checkpoint durably records a completed experiment.  Results of any
// status are written (so a restored finished run is complete), but only
// StatusOK checkpoints are reused on resume — failed and cancelled
// experiments get a fresh attempt.  Store failures degrade durability,
// never the run.
func (r *serverRun) checkpoint(res *Result) {
	s := r.srv
	if s == nil || s.store == nil {
		return
	}
	raw, err := json.Marshal(res)
	if err == nil {
		err = s.store.Checkpoint(r.id, res.Experiment, raw)
	}
	if err != nil {
		s.storeFailed("checkpoint", err)
		return
	}
	s.met.checkpoints.Inc()
}

// broadcast applies a state mutation under the run's lock and fans the
// resulting event out to stream subscribers.
func (r *serverRun) broadcast(mutate func() event) {
	r.mu.Lock()
	ev := mutate()
	subs := append([]chan event{}, r.subs...)
	r.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- ev:
		default: // a slow stream reader drops progress, never blocks the run
		}
	}
}

// status snapshots the run.
func (r *serverRun) status(includeResults bool) RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.statusLocked(includeResults)
}

// statusLocked builds the snapshot; r.mu must be held.
func (r *serverRun) statusLocked(includeResults bool) RunStatus {
	st := RunStatus{
		ID:        r.id,
		Kind:      "run",
		State:     r.state,
		Tenant:    r.spec.Tenant,
		Spec:      r.spec,
		Total:     r.total,
		Completed: len(r.results),
		Resumed:   r.resumed,
		StartedAt: r.started,
	}
	st.FinishedAt, st.WallMs = jobTimes(r.started, r.finished)
	for name := range r.running {
		st.Running = append(st.Running, name)
	}
	counted := r.results
	if r.final != nil {
		counted = r.final
	}
	for _, res := range counted {
		if res != nil {
			st.Measurements += res.Measurements
			st.Samples += res.Samples
		}
	}
	st.Error = r.err
	if includeResults || r.state != StateRunning {
		if r.final != nil {
			st.Results = r.final
		} else {
			st.Results = append([]*Result{}, r.results...)
		}
	}
	return st
}

// subscribe atomically snapshots the run and, if it is still running,
// registers ch for subsequent events.  Taking the snapshot under the
// same lock that appends the subscriber is what makes the stream
// exactly-once: an event is either reflected in the snapshot or
// delivered on ch, never both and never neither.
func (r *serverRun) subscribe(ch chan event) (snapshot RunStatus, subscribed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	snapshot = r.statusLocked(false)
	if r.state == StateRunning {
		r.subs = append(r.subs, ch)
		return snapshot, true
	}
	return snapshot, false
}

// unsubscribe removes ch from the run's subscriber list, if present.
func (r *serverRun) unsubscribe(ch chan event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, sub := range r.subs {
		if sub == ch {
			r.subs = append(r.subs[:i], r.subs[i+1:]...)
			return
		}
	}
}

func (s *Server) lookup(r *http.Request) (*serverRun, string) {
	id := r.PathValue("id")
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs[id], id
}

// runIDLess is the listing order: submission order for run-N IDs
// (run-2 before run-10), length-then-lexicographic in general.
func runIDLess(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request, legacy bool) {
	s.mu.Lock()
	runs := make([]*serverRun, 0, len(s.runs))
	for _, run := range s.runs {
		runs = append(runs, run)
	}
	s.mu.Unlock()
	out := make([]RunStatus, 0, len(runs))
	for _, run := range runs {
		out = append(out, run.status(false))
	}
	if legacy {
		sort.Slice(out, func(i, j int) bool { return runIDLess(out[i].ID, out[j].ID) })
		writeJSON(w, http.StatusOK, out)
		return
	}
	writeJobPage(w, r, out, func(st RunStatus) string { return st.ID })
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	run, id := s.lookup(r)
	if run == nil {
		writeErr(w, http.StatusNotFound, ErrCodeNotFound, "unknown run %q", id)
		return
	}
	if r.URL.Query().Get("stream") != "" {
		s.streamStatus(w, r, run)
		return
	}
	if r.URL.Query().Get("canonical") != "" {
		s.canonicalStatus(w, run)
		return
	}
	writeJSON(w, http.StatusOK, run.status(r.URL.Query().Get("results") != ""))
}

// canonicalStatus serves a finished run's CanonicalRunJSON — the
// byte-comparable form (wall times zeroed) used to verify that sharded,
// resumed and local executions of the same spec agree exactly.
func (s *Server) canonicalStatus(w http.ResponseWriter, run *serverRun) {
	run.mu.Lock()
	state := run.state
	results := run.final
	if results == nil {
		results = append([]*Result{}, run.results...)
	}
	run.mu.Unlock()
	if state == StateRunning {
		writeErr(w, http.StatusConflict, ErrCodeConflict, "run %s is still running; canonical JSON exists only for finished runs", run.id)
		return
	}
	raw, err := CanonicalRunJSON(results)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "internal", "canonicalise run %s: %v", run.id, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(raw)
}

// streamStatus serves NDJSON progress: one snapshot line, then an event
// line per experiment start/finish, then an "end" line.  The snapshot
// and the subscription are taken atomically, so each progress event
// appears exactly once — either folded into the snapshot or streamed.
// Encode errors (a client that went away mid-write) end the stream.
func (s *Server) streamStatus(w http.ResponseWriter, r *http.Request, run *serverRun) {
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)

	ch := make(chan event, 64)
	snapshot, subscribed := run.subscribe(ch)

	if err := enc.Encode(snapshot); err != nil {
		if subscribed {
			run.unsubscribe(ch)
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
				run.unsubscribe(ch)
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			if ev.Event == "end" {
				return
			}
		case <-r.Context().Done():
			run.unsubscribe(ch)
			return
		}
	}
}

// handleCancel cancels a running run.  On a finished run it acts as a
// removal: the run is deleted from the catalogue (the manual counterpart
// of the retention sweep).
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	run, id := s.lookup(r)
	if run == nil {
		writeErr(w, http.StatusNotFound, ErrCodeNotFound, "unknown run %q", id)
		return
	}
	// Mark the cancellation as a user decision before it takes effect, so
	// execute records it as terminal rather than resumable.
	run.mu.Lock()
	run.userCancelled = true
	state := run.state
	run.mu.Unlock()
	run.cancel()
	if state != StateRunning {
		s.mu.Lock()
		// Re-check under s.mu: a concurrent DELETE may have removed it.
		if _, ok := s.runs[id]; ok {
			delete(s.runs, id)
			s.met.runsKept.Set(float64(len(s.runs)))
			s.mu.Unlock()
			s.met.runsSwept.Inc()
			if s.store != nil {
				if err := s.store.Delete(id); err != nil {
					s.storeFailed("delete", err)
				}
			}
		} else {
			s.mu.Unlock()
		}
		writeJSON(w, http.StatusOK, map[string]any{"id": run.id, "state": state, "deleted": true})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": run.id, "state": "cancelling"})
}

// --- Worker lease protocol (sharded execution backend) -------------------
//
// Remote wmmworker processes pull work through three endpoints:
//
//	POST /api/v1/leases                  {"worker": "w1", "max_jobs": 4}
//	  -> {"lease_id": "lease-3", "ttl_ms": 15000, "jobs": [wireJob...]}
//	     (lease_id empty and jobs [] when the queue has no work)
//	POST /api/v1/leases/{id}/heartbeat   -> {"ttl_ms": 15000}; 410 if gone
//	POST /api/v1/leases/{id}/results     {"results": [{run_id, experiment,
//	  result}]} -> {"accepted": N, "requeued": M}; 410 if the lease
//	  expired (its jobs were re-queued; the worker drops the batch)
//
// A job carries everything a worker needs to reproduce the exact bytes a
// local execution would have produced, thanks to positional seed
// derivation.  It has one payload: an experiment job is (run_id,
// experiment, samples, seed, short, adaptive); a litmus shard job
// carries a "litmus" shard descriptor (arch, generator seed/count,
// trials, seed, index range) from which the worker regenerates its slice
// of the batch; an optimizer-cell job carries an "optimize" cell
// descriptor from which the worker re-derives the cell's gate or
// measurement.

// wireJob is one leased job on the wire, the wire form of a Job: an
// experiment job, or — when Litmus or Optimize is non-nil — a litmus
// shard or optimizer-cell job (Experiment then carries the shard or cell
// name and the samples/seed/short fields are unused).
type wireJob struct {
	RunID      string         `json:"run_id"`
	Experiment string         `json:"experiment"`
	Samples    int            `json:"samples,omitempty"`
	Seed       int64          `json:"seed,omitempty"`
	Short      bool           `json:"short"`
	Adaptive   *AdaptiveSpec  `json:"adaptive,omitempty"`
	Litmus     *LitmusShard   `json:"litmus,omitempty"`
	Optimize   *optimize.Cell `json:"optimize,omitempty"`
}

// leaseRequest is the body of POST /api/v1/leases.
type leaseRequest struct {
	Worker  string `json:"worker"`
	MaxJobs int    `json:"max_jobs,omitempty"`
}

// leaseGrant is the response: a batch of jobs under a TTL'd lease.
type leaseGrant struct {
	LeaseID string    `json:"lease_id,omitempty"`
	TTLMs   int64     `json:"ttl_ms,omitempty"`
	Jobs    []wireJob `json:"jobs"`
}

// wireJobResult is one uploaded result; Result is the engine's Result
// as raw JSON, decoded server-side so the stored/served bytes are
// exactly what a local execution would have produced.
type wireJobResult struct {
	RunID      string          `json:"run_id"`
	Experiment string          `json:"experiment"`
	Result     json.RawMessage `json:"result"`
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodeInvalidArgument, "bad lease request: %v", err)
		return
	}
	if req.Worker == "" {
		writeErr(w, http.StatusBadRequest, ErrCodeInvalidArgument, "lease request must name its worker")
		return
	}
	id, ttl, jobs := s.disp.Lease(req.Worker, req.MaxJobs)
	grant := leaseGrant{LeaseID: id, TTLMs: ttl.Milliseconds(), Jobs: []wireJob{}}
	for _, j := range jobs {
		wj := wireJob{RunID: j.runID, Experiment: j.Name}
		switch p := j.Payload.(type) {
		case ExperimentJob:
			wj.Samples, wj.Seed, wj.Short, wj.Adaptive = p.Samples, p.Seed, p.Short, SpecFromRule(p.Adaptive)
		case LitmusShard:
			wj.Litmus = &p
		case OptimizeCell:
			cell := optimize.Cell(p)
			wj.Optimize = &cell
		}
		grant.Jobs = append(grant.Jobs, wj)
	}
	writeJSON(w, http.StatusOK, grant)
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ttl, ok := s.disp.Heartbeat(id)
	if !ok {
		writeErr(w, http.StatusGone, ErrCodeLeaseGone, "lease %q expired or unknown; its jobs were re-queued", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int64{"ttl_ms": ttl.Milliseconds()})
}

func (s *Server) handleLeaseResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req struct {
		Results []wireJobResult `json:"results"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodeInvalidArgument, "bad results upload: %v", err)
		return
	}
	completed := make([]CompletedJob, 0, len(req.Results))
	for _, jr := range req.Results {
		var res Result
		if err := json.Unmarshal(jr.Result, &res); err != nil {
			// An undecodable result is treated as not uploaded: the job
			// is re-queued rather than delivered corrupt.
			continue
		}
		completed = append(completed, CompletedJob{RunID: jr.RunID, Experiment: jr.Experiment, Res: &res})
	}
	accepted, requeued, ok := s.disp.Complete(id, completed)
	if !ok {
		writeErr(w, http.StatusGone, ErrCodeLeaseGone, "lease %q expired or unknown; its jobs were re-queued", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"accepted": accepted, "requeued": requeued})
}
