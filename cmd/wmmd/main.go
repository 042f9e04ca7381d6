// Command wmmd serves the weak-memory-model benchmarking engine over
// HTTP: experiments become queryable, cancellable jobs instead of
// one-shot stdout dumps.
//
// Usage:
//
//	wmmd [-addr :8347] [-workers N] [-parallel N] [-retain 24h]
//	     [-data DIR] [-store jsonl|segment] [-sample-timeout 5m]
//	     [-sample-retries 2] [-local-slots N] [-lease-ttl 15s]
//	     [-max-batch 4] [-max-queue 1024] [-cache-entries 256]
//	     [-cache-retain 168h] [-tenant-max-queued N]
//	     [-tenant-max-running N] [-tenant-weights a=2,b=1]
//	     [-ha] [-ha-id ID] [-ha-ttl 10s] [-ops-addr :8348]
//	     [-legacy-routes=true] [-print-api-doc] [-debug]
//
// API (versioned surface; see docs/API.md for the full contract):
//
//	GET    /healthz                  liveness and worker count
//	GET    /readyz                   readiness: engine up, store writable
//	GET    /metrics                  Prometheus text exposition
//	GET    /api/v1/experiments       experiment catalogue (?limit=&after=)
//	POST   /api/v1/runs              submit {"experiments": ["fig5"],
//	                                 "short": true, "seed": 1, ...};
//	                                 429 + Retry-After when saturated
//	GET    /api/v1/runs              run statuses (?limit=&after=)
//	GET    /api/v1/runs/{id}         one run; ?results=1 partial results,
//	                                 ?stream=1 NDJSON progress,
//	                                 ?canonical=1 canonical result JSON
//	DELETE /api/v1/runs/{id}         cancel / remove a run
//	POST   /api/v1/litmus            submit a generated litmus campaign
//	                                 {"arch": "armv8", "count": 500, ...}
//	GET    /api/v1/litmus            campaign statuses
//	GET    /api/v1/litmus/{id}       one campaign; ?results=1 partial
//	                                 results, ?canonical=1 canonical JSON
//	DELETE /api/v1/litmus/{id}       cancel / remove a campaign
//	POST   /api/v1/optimize          submit a fence-strategy optimizer
//	                                 job {"platform": "jvm", "arch":
//	                                 "armv8", "baseline": ...}
//	GET    /api/v1/optimize          optimizer job statuses
//	GET    /api/v1/optimize/{id}     one job; ?canonical=1 canonical
//	                                 report JSON
//	DELETE /api/v1/optimize/{id}     cancel / remove an optimizer job
//	POST   /api/v1/leases            worker lease: grab a batch of jobs
//	POST   /api/v1/leases/{id}/heartbeat   renew a lease
//	POST   /api/v1/leases/{id}/results     upload a batch's results
//	GET    /debug/pprof/             runtime profiling (only with -debug)
//
// Every non-2xx response carries the uniform JSON error envelope
// {"error": {"code": "...", "message": "..."}} — including unknown v1
// routes (404) and wrong methods (405 + Allow).  The original
// unversioned routes (/experiments, /runs, ...) remain as deprecated
// shims that answer identically plus Deprecation/Sunset headers;
// -legacy-routes=off sunsets them early (410 gone naming the v1
// successor).  -print-api-doc emits the machine-readable route table
// (the committed copy is docs/api-v1.json) and exits.
//
// Execution is sharded: each run decomposes into per-experiment jobs on
// a shared queue, served by -local-slots in-process executors and by
// remote wmmworker processes leasing batches over the API.  A worker
// that stops heartbeating loses its lease and the jobs re-queue;
// positional seed derivation keeps results byte-identical wherever a
// job lands.  -local-slots -1 makes the server a pure coordinator.
// Litmus campaigns ride the same queue as index-range shards of a
// deterministically generated test batch (see docs/LITMUS.md).
//
// Results are content-addressed: before a job is enqueued, the
// dispatcher consults a result cache keyed by a hash of the experiment,
// sweep options, seed and engine version, so resubmitting an identical
// spec is served from cache (experiments carry a "cache" provenance
// field) and concurrent identical submissions execute once
// (single-flight).  -cache-entries bounds the in-memory layer (-1
// disables caching); with -data, entries persist under DIR/cache and
// survive restarts, garbage-collected after -cache-retain.  Append
// ?nocache=1 to POST /api/v1/runs (or set "nocache" in the spec) to
// force execution.  See docs/CACHING.md.
//
// Finished runs are garbage-collected after -retain (0 keeps them
// forever).  Every request is access-logged as one JSON line on stderr.
//
// With -data DIR, runs are durable: specs and completed experiment
// results are checkpointed under DIR, and on startup finished runs are
// restored into the catalogue while interrupted runs resume from their
// last checkpoint.  Positional seed derivation makes a resumed run's
// results identical to an uninterrupted one (see docs/ROBUSTNESS.md).
// -store picks the layout: "jsonl" (one append-only file per run, the
// default) or "segment" (shared immutable segments with crash-safe
// compaction — fewer files, bounded by background folding).
//
// Submissions are accounted to tenants (X-WMM-Tenant header or the
// spec's "tenant" field; default "default").  The dispatcher dequeues
// across tenants by weighted round-robin (-tenant-weights), so one
// tenant's flood cannot starve another's runs; -tenant-max-queued and
// -tenant-max-running bound each tenant's admitted jobs and concurrently
// executing runs, litmus campaigns and optimizer jobs, refused with
// 429 + Retry-After.
//
// With -ha (requires -data), the process joins leader election over the
// store's coordinator lease: at most one wmmd serves the API while the
// others stand by, watching the lease.  A standby binds -addr only when
// promoted; -ops-addr (optional) is an always-on listener answering
// /healthz 200 and /readyz 503 {"role": "standby"} so operators can
// distinguish a healthy standby from a dead process.  When the leader
// dies, a standby takes over after the lease grace window, replays the
// store, and resumes interrupted runs.  The lease term is enforced as a
// fencing token by the store itself: once a rival claims, every store
// write from the old leader is refused (so a stalled process cannot
// corrupt the store), and a deposed or fenced leader exits with status
// 3 — restart it (e.g. a process supervisor) to rejoin as standby.
//
// On SIGINT/SIGTERM the server shuts down in order: stop accepting
// runs, cancel in-flight runs and wait for their executors, drain HTTP,
// and only then close the engine's worker pool — so a shutdown never
// closes the job channel under an in-flight Measure.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/ha"
	"repro/internal/metrics"
	"repro/internal/resultcache"
	"repro/internal/runstore"
)

// accessLog wraps a handler with one-line JSON access logging.
type accessLog struct {
	h   http.Handler
	out *log.Logger
}

// logWriter records status and bytes while passing Flush through to
// streaming handlers.
type logWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *logWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *logWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *logWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap supports http.ResponseController.
func (w *logWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (a *accessLog) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	lw := &logWriter{ResponseWriter: w}
	start := time.Now()
	a.h.ServeHTTP(lw, r)
	code := lw.code
	if code == 0 {
		code = http.StatusOK
	}
	line, _ := json.Marshal(map[string]any{
		"time":        start.UTC().Format(time.RFC3339Nano),
		"method":      r.Method,
		"path":        r.URL.RequestURI(),
		"status":      code,
		"bytes":       lw.bytes,
		"duration_ms": time.Since(start).Seconds() * 1e3,
		"remote":      r.RemoteAddr,
	})
	a.out.Print(string(line))
}

func main() {
	addr := flag.String("addr", ":8347", "listen address")
	workers := flag.Int("workers", 0, "sample worker-pool size (0 = GOMAXPROCS)")
	parallel := flag.Int("parallel", 0, "default concurrent experiments per run (0 = worker count)")
	retain := flag.Duration("retain", 24*time.Hour, "garbage-collect finished runs after this long (0 = keep forever)")
	dataDir := flag.String("data", "", "directory for durable run state (empty = in-memory only)")
	sampleTimeout := flag.Duration("sample-timeout", 5*time.Minute, "per-sample watchdog deadline (0 = none)")
	sampleRetries := flag.Int("sample-retries", 2, "retries per failed sample batch before the experiment degrades")
	localSlots := flag.Int("local-slots", 0, "local executor slots pulling from the job queue (0 = -parallel default, -1 = coordinate only)")
	leaseTTL := flag.Duration("lease-ttl", 15*time.Second, "worker lease validity between heartbeats")
	maxBatch := flag.Int("max-batch", 4, "max jobs handed out per worker lease")
	maxQueue := flag.Int("max-queue", 1024, "max unfinished jobs admitted before submissions get 429")
	cacheEntries := flag.Int("cache-entries", 256, "in-memory result-cache entries (0 = default, -1 = disable result caching)")
	cacheRetain := flag.Duration("cache-retain", 7*24*time.Hour, "garbage-collect persisted result-cache entries after this long (0 = keep forever)")
	storeKind := flag.String("store", runstore.KindJSONL, "run-store layout under -data: jsonl or segment")
	tenantMaxQueued := flag.Int("tenant-max-queued", 0, "max unfinished jobs admitted per tenant (0 = only -max-queue applies)")
	tenantMaxRunning := flag.Int("tenant-max-running", 0, "max concurrently executing jobs (runs, litmus campaigns, optimizer jobs) per tenant (0 = unbounded)")
	tenantWeights := flag.String("tenant-weights", "", "fair-share weights as tenant=N[,tenant=N...] (default weight 1)")
	haMode := flag.Bool("ha", false, "join leader election over the run store's coordinator lease (requires -data)")
	haID := flag.String("ha-id", "", "lease owner identity for -ha (default hostname-pid)")
	haTTL := flag.Duration("ha-ttl", 10*time.Second, "coordinator lease TTL for -ha")
	opsAddr := flag.String("ops-addr", "", "always-on operational listener (healthz/readyz) for -ha standbys (empty = none)")
	legacyRoutes := flag.String("legacy-routes", "on", "serve the deprecated unversioned routes (/runs, /experiments): on, or off (410 gone naming the v1 successor)")
	printAPIDoc := flag.Bool("print-api-doc", false, "print the machine-readable API description (docs/api-v1.json) and exit")
	debug := flag.Bool("debug", false, "expose net/http/pprof under /debug/pprof/")
	flag.Parse()

	if *printAPIDoc {
		os.Stdout.Write(engine.APIDoc())
		return
	}

	// Validate flags up front with actionable errors, instead of letting
	// a bad value surface later as a confusing runtime failure.
	if *workers < 0 {
		log.Fatalf("wmmd: -workers must be >= 0 (0 = GOMAXPROCS), got %d", *workers)
	}
	if *parallel < 0 {
		log.Fatalf("wmmd: -parallel must be >= 0 (0 = worker count), got %d", *parallel)
	}
	if *retain < 0 {
		log.Fatalf("wmmd: -retain must be >= 0 (0 = keep forever), got %v", *retain)
	}
	if *sampleTimeout < 0 {
		log.Fatalf("wmmd: -sample-timeout must be >= 0 (0 = no deadline), got %v", *sampleTimeout)
	}
	if *sampleRetries < 0 {
		log.Fatalf("wmmd: -sample-retries must be >= 0, got %d", *sampleRetries)
	}
	if *localSlots < -1 {
		log.Fatalf("wmmd: -local-slots must be >= -1 (-1 = coordinate only, 0 = default), got %d", *localSlots)
	}
	if *leaseTTL <= 0 {
		log.Fatalf("wmmd: -lease-ttl must be > 0, got %v", *leaseTTL)
	}
	if *maxBatch <= 0 {
		log.Fatalf("wmmd: -max-batch must be > 0, got %d", *maxBatch)
	}
	if *maxQueue <= 0 {
		log.Fatalf("wmmd: -max-queue must be > 0, got %d", *maxQueue)
	}
	if *cacheEntries < -1 {
		log.Fatalf("wmmd: -cache-entries must be >= -1 (-1 = disable, 0 = default), got %d", *cacheEntries)
	}
	if *cacheRetain < 0 {
		log.Fatalf("wmmd: -cache-retain must be >= 0 (0 = keep forever), got %v", *cacheRetain)
	}
	if *tenantMaxQueued < 0 || *tenantMaxRunning < 0 {
		log.Fatalf("wmmd: -tenant-max-queued and -tenant-max-running must be >= 0 (0 = unbounded)")
	}
	weights, err := parseWeights(*tenantWeights)
	if err != nil {
		log.Fatalf("wmmd: -tenant-weights: %v", err)
	}
	if *haMode && *dataDir == "" {
		log.Fatal("wmmd: -ha requires -data (the lease lives in the run store)")
	}
	if *haTTL <= 0 {
		log.Fatalf("wmmd: -ha-ttl must be > 0, got %v", *haTTL)
	}
	var disableLegacy bool
	switch *legacyRoutes {
	case "on", "true":
	case "off", "false":
		disableLegacy = true
	default:
		log.Fatalf("wmmd: -legacy-routes must be on or off, got %q", *legacyRoutes)
	}

	var store runstore.Storage
	if *dataDir != "" {
		store, err = runstore.OpenBackend(*storeKind, *dataDir)
		if err != nil {
			log.Fatalf("wmmd: -data %s: %v", *dataDir, err)
		}
	} else if *storeKind != runstore.KindJSONL {
		log.Fatalf("wmmd: -store %s needs -data", *storeKind)
	}

	// One registry serves the whole process, created before the engine
	// exists: the HA controller's wmm_ha_* instruments live next to the
	// engine's, so one /metrics scrape sees role, term and fenced-write
	// counts alongside everything else.
	reg := metrics.NewRegistry()

	// buildAPI assembles the full serving stack: engine, result cache,
	// server, store replay.  Non-HA wmmd calls it immediately; an HA
	// process calls it on promotion, so a standby holds no engine and
	// replays nothing until it actually leads.
	var api *engine.Server
	var eng *engine.Engine
	buildAPI := func() (http.Handler, error) {
		eng = engine.New(engine.Options{
			Workers:       *workers,
			SampleTimeout: *sampleTimeout,
			Retry:         engine.RetryPolicy{Max: *sampleRetries},
			Registry:      reg,
		})
		// Content-addressed result reuse: the dispatcher consults the
		// cache before enqueueing jobs, and with -data the persistent
		// layer makes deduplication survive restarts.
		var cache *resultcache.Cache
		if *cacheEntries >= 0 {
			copt := resultcache.Options{MaxEntries: *cacheEntries, Registry: eng.Metrics()}
			if store != nil {
				copt.Persist = store
			}
			cache = resultcache.New(copt)
		}
		api = engine.NewServer(eng, engine.ServerOptions{
			Parallel:         *parallel,
			Retain:           *retain,
			CacheRetain:      *cacheRetain,
			Store:            store,
			TenantMaxRunning: *tenantMaxRunning,
			DisableLegacy:    disableLegacy,
			// A fenced store write means another process coordinates:
			// depose immediately (→ exit 3) rather than waiting for the
			// renew loop to notice.  No-op outside -ha, where the fence
			// is never armed.
			OnFenced: func() {
				if haCtrl != nil {
					haCtrl.NoteFenced()
				}
			},
			Dispatch: engine.DispatchOptions{
				LocalSlots:      *localSlots,
				LeaseTTL:        *leaseTTL,
				MaxBatch:        *maxBatch,
				MaxQueue:        *maxQueue,
				TenantMaxQueued: *tenantMaxQueued,
				TenantWeights:   weights,
				Cache:           cache,
			},
		})
		if store != nil {
			resumed, restored, err := api.Restore()
			if err != nil {
				return nil, fmt.Errorf("restoring runs from %s: %w", *dataDir, err)
			}
			log.Printf("wmmd: run store %s (%s): %d finished runs restored, %d interrupted runs resumed",
				*dataDir, store.Kind(), restored, resumed)
		}

		mux := http.NewServeMux()
		mux.Handle("/", api.Handler())
		if *debug {
			mux.HandleFunc("GET /debug/pprof/", pprof.Index)
			mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		}
		return mux, nil
	}

	logger := log.New(os.Stderr, "", 0)
	srv := &http.Server{Addr: *addr}

	// shutdown drains in order: stop accepting runs, cancel in-flight
	// runs and wait for their executors (api.Shutdown), drain HTTP, and
	// let main close the engine last.  Closing the engine while a run is
	// mid-Measure is a send on a closed channel.
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if api != nil {
			if err := api.Shutdown(ctx); err != nil {
				log.Printf("wmmd: run shutdown: %v", err)
			}
		}
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("wmmd: http shutdown: %v", err)
		}
	}

	dataDesc := *dataDir
	if dataDesc == "" {
		dataDesc = "none"
	}

	if !*haMode {
		h, err := buildAPI()
		if err != nil {
			log.Fatalf("wmmd: %v", err)
		}
		srv.Handler = &accessLog{h: h, out: logger}

		shutdownDone := make(chan struct{})
		go func() {
			defer close(shutdownDone)
			sig := make(chan os.Signal, 1)
			signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
			<-sig
			log.Print("wmmd: shutting down")
			shutdown()
		}()

		log.Printf("wmmd: serving on %s (%d workers, retain %v, data %s, debug %v)", *addr, eng.Workers(), *retain, dataDesc, *debug)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("wmmd: %v", err)
		}
		<-shutdownDone
		eng.Close()
		return
	}

	// HA mode: stand by until the coordinator lease is won, then build
	// the API and bind -addr.  The lease is acquired BEFORE binding, so
	// two HA processes can share one -addr: only the leader listens.
	ctrl, err := ha.New(ha.Options{
		Store:   store,
		ID:      *haID,
		TTL:     *haTTL,
		Metrics: reg,
		OnPromote: func(ctx context.Context) (http.Handler, error) {
			h, err := buildAPI()
			if err != nil {
				return nil, err
			}
			srv.Handler = &accessLog{h: ctrlHandler(), out: logger}
			ln, err := listenRetry(*addr, *haTTL)
			if err != nil {
				return nil, err
			}
			go func() {
				if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
					log.Printf("wmmd: serve: %v", err)
				}
			}()
			log.Printf("wmmd: leader serving on %s (data %s, store %s)", *addr, dataDesc, store.Kind())
			return h, nil
		},
	})
	if err != nil {
		log.Fatalf("wmmd: %v", err)
	}
	haCtrl = ctrl

	// The ops listener is up from the first moment, leader or standby:
	// /healthz says alive, /readyz says whether (and as what) this
	// process can take traffic.
	if *opsAddr != "" {
		opsSrv := &http.Server{Addr: *opsAddr, Handler: &accessLog{h: ctrl.Handler(), out: logger}}
		go func() {
			if err := opsSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Fatalf("wmmd: ops listener %s: %v", *opsAddr, err)
			}
		}()
		defer opsSrv.Close()
	}

	runCtx, stopRun := context.WithCancel(context.Background())
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("wmmd: shutting down")
		shutdown()
		stopRun() // releases the lease for a fast standby takeover
	}()

	log.Printf("wmmd: HA %s standing by for coordinator lease (ttl %v, data %s)", ctrlID(ctrl, *haID), *haTTL, dataDesc)
	err = ctrl.Run(runCtx)
	switch {
	case err == nil:
		// Clean shutdown: drain finished above.
		if eng != nil {
			eng.Close()
		}
	case errors.Is(err, ha.ErrDeposed):
		// Another process leads.  Serving on would risk split-brain, and
		// the engine may hold half-executed runs — exit hard and let the
		// supervisor restart this process as a standby.
		log.Print("wmmd: deposed, exiting (restart to rejoin as standby)")
		os.Exit(3)
	default:
		log.Fatalf("wmmd: %v", err)
	}
}

// haCtrl lets the promoted access-log handler reach the controller; set
// once before Run starts.
var haCtrl *ha.Controller

// ctrlHandler defers to the HA controller's surface so the main
// listener and the ops listener answer identically.
func ctrlHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		haCtrl.Handler().ServeHTTP(w, r)
	})
}

func ctrlID(c *ha.Controller, flagID string) string {
	if flagID != "" {
		return flagID
	}
	return "node"
}

// listenRetry binds addr, retrying for one lease TTL: after a failover
// the old leader's socket may take a moment to die.
func listenRetry(addr string, ttl time.Duration) (net.Listener, error) {
	deadline := time.Now().Add(2 * ttl)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("bind %s: %w", addr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// parseWeights parses -tenant-weights ("a=2,b=1") into the dispatcher's
// weight map.
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad entry %q, want tenant=N", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad weight in %q, want an integer >= 1", part)
		}
		out[name] = w
	}
	return out, nil
}
