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

// serverMetrics are the HTTP layer's instruments.
type serverMetrics struct {
	requests *metrics.Counter        // method, path, code
	latency  *metrics.Histogram      // method, path
	jobs     map[string]*kindMetrics // job-lifecycle instruments, by kind

	checkpoints  *metrics.Counter // experiment results durably checkpointed
	storeErrors  *metrics.Counter // failed store operations, by op
	storeFenced  *metrics.Counter // store mutations refused by the fencing token
	runsResumed  *metrics.Counter // interrupted runs resumed on startup
	runsRestored *metrics.Counter // finished runs replayed into the catalogue

	cacheSwept *metrics.Counter // persisted cache entries removed by retention
	tenantRuns *metrics.Gauge   // jobs of every kind executing, by tenant
}

// kindMetrics are one job kind's instruments.  Only runs have the
// active and kept gauges; the helpers skip a nil one.
type kindMetrics struct {
	runs   *metrics.Counter // lifecycle transitions, by state
	swept  *metrics.Counter // finished jobs removed by GC or DELETE
	active *metrics.Gauge   // jobs executing
	kept   *metrics.Gauge   // jobs held in the table
}

func (m *kindMetrics) executing(d float64) {
	if m.active != nil {
		m.active.Add(d)
	}
}

func (m *kindMetrics) retained(d float64) {
	if m.kept != nil {
		m.kept.Add(d)
	}
}

func newServerMetrics(r *metrics.Registry) *serverMetrics {
	return &serverMetrics{
		requests: r.Counter("wmm_http_requests_total", "HTTP requests served, by route and status code.", "method", "path", "code"),
		latency:  r.Histogram("wmm_http_request_seconds", "HTTP request latency, by route.", nil, "method", "path"),
		jobs: map[string]*kindMetrics{
			runKind.name: {
				runs:   r.Counter("wmm_runs_total", "Run lifecycle transitions (submitted/done/failed/cancelled/partial).", "state"),
				swept:  r.Counter("wmm_runs_swept_total", "Finished runs removed by the retention sweep or DELETE."),
				active: r.Gauge("wmm_runs_active", "Runs currently executing."),
				kept:   r.Gauge("wmm_runs_retained", "Runs held in memory (running + finished awaiting retention)."),
			},
			litmusKind.name: {
				runs:  r.Counter("wmm_litmus_runs_total", "Litmus campaign lifecycle transitions (submitted/done/failed/cancelled/partial).", "state"),
				swept: r.Counter("wmm_litmus_runs_swept_total", "Finished litmus campaigns removed by the retention sweep or DELETE."),
			},
			optimizeKind.name: {
				runs:  r.Counter("wmm_optimize_runs_total", "Optimizer job lifecycle transitions (submitted/done/failed/cancelled).", "state"),
				swept: r.Counter("wmm_optimize_runs_swept_total", "Finished optimizer jobs removed by the retention sweep or DELETE."),
			},
		},

		checkpoints:  r.Counter("wmm_store_checkpoints_written_total", "Experiment results durably checkpointed to the run store."),
		storeErrors:  r.Counter("wmm_store_errors_total", "Failed run-store operations, by operation.", "op"),
		storeFenced:  r.Counter("wmm_store_fenced_writes_total", "Store mutations refused by the lease fencing token (this process was deposed)."),
		runsResumed:  r.Counter("wmm_runs_resumed_total", "Interrupted runs resumed from the store on startup."),
		runsRestored: r.Counter("wmm_runs_restored_total", "Finished runs replayed from the store into the catalogue."),

		cacheSwept: r.Counter("wmm_resultcache_persist_swept_total", "Persisted result-cache entries removed by the retention sweep."),
		tenantRuns: r.Gauge("wmm_tenant_runs_running", "Jobs (runs, litmus campaigns and optimizer jobs) currently executing, by tenant.", "tenant"),
	}
}

// ServerOptions configures NewServer.
type ServerOptions struct {
	// Parallel is the experiment-level concurrency used when a RunSpec
	// does not choose its own (<= 0 falls back to the engine's worker
	// count).
	Parallel int
	// Retain bounds how long a finished job — run, litmus campaign or
	// optimizer job — stays queryable.  The retention sweep, every
	// Retain/4 clamped to [1s, 1m], removes finished jobs older than
	// this; 0 keeps them forever (a leak on a long-lived server).
	Retain time.Duration
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
// experiments and asynchronous, cancellable jobs — experiment runs with
// streamed progress, litmus campaigns and optimizer jobs.  Wire its
// Handler into an http.Server (see cmd/wmmd) and call Shutdown before
// Engine.Close — it cancels in-flight jobs and waits for them, so the
// engine's job channel is never closed mid-send.
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
	jobs          map[string]*asyncJob // runs, litmus campaigns and optimizer jobs, by ID
	jobSeq        map[string]int       // last job ID issued, by kind
	tenantRunning map[string]int       // executing jobs of every kind, by tenant
	closed        bool

	active   sync.WaitGroup // one per executing job
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
		jobs:             map[string]*asyncJob{},
		jobSeq:           map[string]int{},
		tenantRunning:    map[string]int{},
		stop:             make(chan struct{}),
	}
	if s.store != nil {
		// Continue the run-N sequence past anything already on disk so
		// a restarted server never reuses an ID.
		s.jobSeq[runKind.name] = s.store.MaxSeq()
	}
	s.disp = NewDispatcher(eng, o.Dispatch, o.Parallel)
	s.disp.onAssign = s.assigned
	if o.Retain > 0 || (o.CacheRetain > 0 && o.Store != nil) {
		// Sweep at a quarter of the retention (of CacheRetain when only
		// it is set), clamped to [1s, 1m].
		every := o.Retain / 4
		if every <= 0 {
			every = o.CacheRetain / 4
		}
		go s.sweep(min(max(every, time.Second), time.Minute))
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

// durable reports whether j persists to the run store.
func (s *Server) durable(j *asyncJob) bool { return s.store != nil && j.kind.durable }

// begin persists a durable job's spec before any work happens, so a
// crash at any later point leaves a resumable record.  Durability is
// best-effort: a store failure degrades to the in-memory behaviour and
// is counted — except a fenced write, which proves another coordinator
// owns the store.  begin then reports false and the job must be refused,
// because work accepted here could never be recorded and this process is
// about to exit.
func (s *Server) begin(j *asyncJob, spec any) bool {
	if !s.durable(j) {
		return true
	}
	raw, err := json.Marshal(spec)
	if err == nil {
		err = s.store.Begin(j.id, raw, j.started)
	}
	if err == nil {
		return true
	}
	s.storeFailed("begin", err)
	return !errors.Is(err, runstore.ErrFenced)
}

// checkpoint durably records one finished dispatch job of a durable job.
// Results of any status are written (so a restored finished run is
// complete), but only StatusOK checkpoints are reused on resume — failed
// and cancelled experiments get a fresh attempt.  Store failures degrade
// durability, never the job.
func (s *Server) checkpoint(j *asyncJob, res *Result) {
	if !s.durable(j) {
		return
	}
	raw, err := json.Marshal(res)
	if err == nil {
		err = s.store.Checkpoint(j.id, res.Experiment, raw)
	}
	if err != nil {
		s.storeFailed("checkpoint", err)
		return
	}
	s.met.checkpoints.Inc()
}

// end records a durable job's terminal state — except for a
// shutdown-triggered cancellation, which deliberately leaves the job
// interrupted in the store so the next startup resumes it from its
// checkpoints.  An explicit DELETE is a user decision and stays terminal.
func (s *Server) end(j *asyncJob, state, errMsg string, userCancelled bool) {
	if !s.durable(j) {
		return
	}
	s.mu.Lock()
	closing := s.closed
	s.mu.Unlock()
	if state == StateCancelled && !userCancelled && closing {
		return
	}
	if err := s.store.End(j.id, state, errMsg); err != nil {
		s.storeFailed("end", err)
	}
}

// forget accounts jobs already removed from the table; durable ones
// leave the store too, or they would resurrect at the next restart.
func (s *Server) forget(jobs ...*asyncJob) {
	for _, j := range jobs {
		m := s.met.jobs[j.kind.name]
		m.swept.Inc()
		m.retained(-1)
		if s.durable(j) {
			if err := s.store.Delete(j.id); err != nil {
				s.storeFailed("delete", err)
			}
		}
	}
}

// assigned records a dispatch job leased to a remote worker.  Only a
// durable job's assignments are written: the store replays and deletes
// records by job, so another kind's would be orphaned files.
func (s *Server) assigned(id, name, worker string) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil || !s.durable(j) {
		return
	}
	if err := s.store.Assign(id, name, worker); err != nil {
		s.storeFailed("assign", err)
	}
}

// sweep periodically garbage-collects finished jobs past retention.
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

// gc removes finished jobs of every kind whose retention has lapsed (and
// persisted cache entries past their own retention), returning how many
// jobs were removed.
func (s *Server) gc(now time.Time) int {
	var swept []*asyncJob
	if s.retain > 0 {
		cutoff := now.Add(-s.retain)
		s.mu.Lock()
		for id, j := range s.jobs {
			j.mu.Lock()
			expired := j.state != StateRunning && j.finished.Before(cutoff)
			j.mu.Unlock()
			if expired {
				delete(s.jobs, id)
				swept = append(swept, j)
			}
		}
		s.mu.Unlock()
		s.forget(swept...)
	}
	// Persisted cache entries age out under their own (typically longer)
	// retention: reuse is most valuable across restarts, but the cache/
	// directory must not grow forever either.
	if s.store != nil && s.cacheRetain > 0 {
		if swept := s.store.CacheSweep(now.Add(-s.cacheRetain)); swept > 0 {
			s.met.cacheSwept.Add(float64(swept))
		}
	}
	return len(swept)
}

// Shutdown stops accepting new jobs, cancels every in-flight one, and
// waits (bounded by ctx) for their executor goroutines to finish.  After
// it returns nil, no run is mid-Measure, so Engine.Close is safe.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	cancels := make([]context.CancelFunc, 0, len(s.jobs))
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

// tenantAdmitRunningLocked enforces the per-tenant quota on executing
// jobs of every kind and, when admitted, counts the job.  Callers must
// hold s.mu.
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

// retryAfterSecs is the backpressure hint (Retry-After) on every 429.
const retryAfterSecs = 2

// writeSaturated is the shared 429 envelope for queue and quota
// refusals: Retry-After plus the standard error body.
func writeSaturated(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs))
	args = append(args, retryAfterSecs)
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

// admitJob is the submit preamble.  Admission control first refuses work
// the dispatch queue cannot absorb — globally or within the tenant's
// quota — with a Retry-After hint, before anything is recorded: the
// reservation covers the job's first j.admitted dispatch jobs and is
// released job by job as they finish.  Then, under s.mu, a closing
// server or a tenant already at its running-jobs quota is refused;
// otherwise the job takes the next ID of its kind and the cancel of the
// returned context, and enters the table.  A refusal releases what was
// taken and writes its envelope (ok=false).
func (s *Server) admitJob(w http.ResponseWriter, j *asyncJob, timeoutMs int64) (ctx context.Context, ok bool) {
	tenant, n, k := j.tenant, j.admitted, j.kind
	switch err := s.disp.TryAdmit(tenant, n); err {
	case nil:
	case ErrTenantSaturated:
		writeSaturated(w, "tenant %q queue quota exceeded (%d %s refused)", tenant, n, k.unit)
		return nil, false
	default:
		writeSaturated(w, "dispatch queue saturated (%d %s refused)", n, k.unit)
		return nil, false
	}
	ctx, cancel := jobContext(timeoutMs)
	s.mu.Lock()
	closed := s.closed
	if !closed && s.tenantAdmitRunningLocked(tenant) {
		s.jobSeq[k.name]++
		j.id = fmt.Sprintf("%s-%d", k.name, s.jobSeq[k.name])
		j.cancel, j.started = cancel, time.Now()
		s.addJobLocked(j)
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
		s.disp.met.tenantRejected.Inc(tenant, "tenant_running")
		writeSaturated(w, "tenant %q already has %d jobs executing", tenant, s.tenantMaxRunning)
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

// runIDLess is the listing order: submission order for run-N IDs
// (run-2 before run-10), length-then-lexicographic in general.
func runIDLess(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
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
