package engine

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Async-job API, shared by every job kind — experiment runs, litmus
// campaigns and optimizer jobs:
//
//	POST   /api/v1/{kind}        submit a job, returns {"id", "state",
//	                             "total"}; 429 under saturation
//	GET    /api/v1/{kind}        job statuses, in submission order (paginated)
//	GET    /api/v1/{kind}/{id}   status; ?results=1 includes partial results
//	                             (runs, litmus); ?stream=1 streams NDJSON
//	                             progress (runs); ?canonical=1 serves the
//	                             finished job's canonical JSON
//	DELETE /api/v1/{kind}/{id}   cancel a running job / remove a finished one
//
// Every job lives in one table (Server.jobs) and goes through one
// lifecycle: admission, execution on its own goroutine, retention sweep,
// DELETE and Shutdown.  What differs lives behind jobKind (submission,
// durability) and jobWork (execution, progress, status, canonical bytes).
//
// Only runs persist: a durable kind's spec is written to the run store
// at submission, each finished dispatch job is checkpointed, the
// terminal state is recorded — except after a shutdown cancel, which
// leaves the job for Restore to resume — and removal deletes the record.
// Litmus campaigns and optimizer jobs are in-memory only, because either
// is cheap to resubmit: litmus shards regenerate from their descriptor
// and optimizer cells resolve from the result cache.

// jobKind describes one job kind to the shared handlers.
type jobKind struct {
	name string // ID prefix, status "kind" and metric key
	noun string // the job in messages: "run", "litmus campaign", "optimize job"
	unit string // what admission counts: "jobs", "shards", "cells"
	// durable kinds persist to the run store, as above.
	durable bool
	// plan decodes and normalises a submission; an error is a 400.  It
	// sees the request for per-request query flags such as ?nocache=1.
	plan func(r *http.Request, defaultParallel int) (jobPlan, error)
}

// jobPlan is a validated submission.
type jobPlan struct {
	work      jobWork
	spec      any     // a durable kind's normalised spec, what it persists
	tenant    *string // the spec's tenant field, set to the effective tenant
	timeoutMs int64
	// size is the first wave of dispatch jobs: the admission reservation
	// and the "total" of the submit response.
	size int
}

// jobWork is the per-kind half of a job.  drive runs on the job's own
// goroutine; the other methods run under the job's lock.
type jobWork interface {
	// drive executes the job through the dispatcher.  It returns the
	// results that classify the final state (nil for a kind that has no
	// partial outcome), a settle func that records the kind's final
	// fields once the job's state is set, and the job's error.
	drive(ctx context.Context, s *Server, j *asyncJob) (results []*Result, settle func(), err error)
	// started and record fold one dispatch job's start and finish into
	// the progress state.
	started(name string)
	record(res *Result)
	// status snapshots the kind's status document; listing trims it to a
	// list row.
	status(j *asyncJob, withResults, listing bool) jobStatus
	// canonical returns a finished job's byte-stable JSON, or nil when
	// the job ended without any.
	canonical() ([]byte, error)
}

// streamer is a jobWork that serves ?stream=1 as NDJSON progress.
type streamer interface {
	stream(w http.ResponseWriter, r *http.Request, j *asyncJob)
	// endStreams sends every open stream the job's "end" event and closes
	// it.  It runs under the job's lock, once the final state is recorded.
	endStreams(j *asyncJob)
}

// jobStatus is a kind's status document; every one carries the job ID
// the listing paginates by.
type jobStatus interface{ jobID() string }

// asyncJob is one submitted run, litmus campaign or optimizer job.
type asyncJob struct {
	srv      *Server
	id       string
	kind     *jobKind
	tenant   string
	cancel   context.CancelFunc
	admitted int // the admission reservation (0 for a resumed run)

	mu       sync.Mutex
	state    string
	started  time.Time
	finished time.Time
	err      string
	work     jobWork
	// userCancelled distinguishes an explicit DELETE from a
	// shutdown-triggered cancellation: the former is a terminal outcome
	// recorded in the store, the latter leaves a durable job interrupted
	// so a restart resumes it.
	userCancelled bool
}

// locked runs f under the job's lock.
func (j *asyncJob) locked(f func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	f()
}

// ExperimentStarted and ExperimentDone make the job the dispatcher's
// progress Sink.  A durable job checkpoints each finished dispatch job
// after the progress update, outside the job lock.
func (j *asyncJob) ExperimentStarted(name string) {
	j.locked(func() { j.work.started(name) })
}

func (j *asyncJob) ExperimentDone(res *Result) {
	j.locked(func() { j.work.record(res) })
	j.srv.checkpoint(j, res)
}

// jobTimes is the finished_at / wall_ms pair of every job status: when
// the job finished (nil while it runs) and its wall time so far.
func jobTimes(started, finished time.Time) (*time.Time, int64) {
	if finished.IsZero() {
		return nil, time.Since(started).Milliseconds()
	}
	return &finished, finished.Sub(started).Milliseconds()
}

func (s *Server) handleJobSubmit(k *jobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		p, err := k.plan(r, s.defaultParallel)
		if err != nil {
			writeErr(w, http.StatusBadRequest, ErrCodeInvalidArgument, "bad %s spec: %v", k.name, err)
			return
		}
		tenant, ok := resolveTenant(w, r, *p.tenant)
		if !ok {
			return
		}
		*p.tenant = tenant // persist and echo the effective tenant
		j := &asyncJob{srv: s, kind: k, tenant: tenant, admitted: p.size, state: StateRunning, work: p.work}
		ctx, ok := s.admitJob(w, j, p.timeoutMs)
		if !ok {
			return
		}
		if !s.begin(j, p.spec) {
			// Deposed: undo the admission and answer 503.
			s.mu.Lock()
			delete(s.jobs, j.id)
			s.tenantRunningAddLocked(tenant, -1)
			s.mu.Unlock()
			s.met.jobs[k.name].retained(-1)
			s.active.Done()
			j.cancel()
			s.disp.admitForce(tenant, -p.size)
			writeErr(w, http.StatusServiceUnavailable, ErrCodeUnavailable,
				"coordinator deposed: run store is fenced at a newer lease term")
			return
		}
		s.met.jobs[k.name].runs.Inc("submitted")
		s.launch(ctx, j)
		writeJSON(w, http.StatusAccepted, map[string]any{"id": j.id, "state": StateRunning, "total": p.size})
	}
}

// addJobLocked enters a job into the table.  Callers hold s.mu.
func (s *Server) addJobLocked(j *asyncJob) {
	s.jobs[j.id] = j
	s.met.jobs[j.kind.name].retained(1)
}

// launch starts an admitted job's executor goroutine.
func (s *Server) launch(ctx context.Context, j *asyncJob) {
	s.met.jobs[j.kind.name].executing(1)
	go s.executeJob(ctx, j)
}

// executeJob drives a job to completion on its own goroutine.
func (s *Server) executeJob(ctx context.Context, j *asyncJob) {
	defer s.active.Done()
	defer j.cancel()
	defer s.tenantRunningDone(j.tenant)

	results, settle, err := j.work.drive(ctx, s, j)

	j.mu.Lock()
	j.finished = time.Now()
	j.state = finalState(ctx, err, results)
	if err != nil {
		j.err = err.Error()
	}
	settle()
	state, errMsg, userCancelled := j.state, j.err, j.userCancelled
	j.mu.Unlock()
	m := s.met.jobs[j.kind.name]
	m.runs.Inc(state)
	m.executing(-1)
	s.end(j, state, errMsg, userCancelled)
	// Streams end only after the store write, so a client that has seen
	// "end" finds the terminal state recorded.
	if sw, ok := j.work.(streamer); ok {
		j.locked(func() { sw.endStreams(j) })
	}
}

// findJob finds the job a request names, if it is of kind k.
func (s *Server) findJob(k *jobKind, r *http.Request) (*asyncJob, string) {
	id := r.PathValue("id")
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.jobs[id]; j != nil && j.kind == k {
		return j, id
	}
	return nil, id
}

// handleJobList serves the kind's statuses: a cursor-paginated page, or
// for a legacy route the bare array in submission order.
func (s *Server) handleJobList(k *jobKind, legacy bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		var jobs []*asyncJob
		for _, j := range s.jobs {
			if j.kind == k {
				jobs = append(jobs, j)
			}
		}
		s.mu.Unlock()
		out := make([]jobStatus, 0, len(jobs))
		for _, j := range jobs {
			j.locked(func() { out = append(out, j.work.status(j, false, true)) })
		}
		if legacy {
			sort.Slice(out, func(a, b int) bool { return runIDLess(out[a].jobID(), out[b].jobID()) })
			writeJSON(w, http.StatusOK, out)
			return
		}
		writeJobPage(w, r, out, jobStatus.jobID)
	}
}

func (s *Server) handleJobStatus(k *jobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, id := s.findJob(k, r)
		if j == nil {
			writeErr(w, http.StatusNotFound, ErrCodeNotFound, "unknown %s %q", k.noun, id)
			return
		}
		q := r.URL.Query()
		if sw, ok := j.work.(streamer); ok && q.Get("stream") != "" {
			sw.stream(w, r, j)
			return
		}
		if q.Get("canonical") == "" {
			var st jobStatus
			j.locked(func() { st = j.work.status(j, q.Get("results") != "", false) })
			writeJSON(w, http.StatusOK, st)
			return
		}
		var state string
		var raw []byte
		var err error
		j.locked(func() {
			if state = j.state; state != StateRunning {
				raw, err = j.work.canonical()
			}
		})
		switch {
		case state == StateRunning:
			writeErr(w, http.StatusConflict, ErrCodeConflict,
				"%s %s is still running; canonical JSON exists only for finished jobs", k.noun, j.id)
		case err != nil:
			writeErr(w, http.StatusInternalServerError, "internal", "canonicalise %s %s: %v", k.noun, j.id, err)
		case raw == nil:
			writeErr(w, http.StatusConflict, ErrCodeConflict, "%s %s finished %s without a result", k.noun, j.id, state)
		default:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			w.Write(raw)
		}
	}
}

// handleJobCancel cancels a running job; on a finished one it removes it
// from the catalogue (the manual counterpart of the retention sweep).
func (s *Server) handleJobCancel(k *jobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, id := s.findJob(k, r)
		if j == nil {
			writeErr(w, http.StatusNotFound, ErrCodeNotFound, "unknown %s %q", k.noun, id)
			return
		}
		// Mark the cancellation as a user decision before it takes
		// effect, so a durable job's end is recorded as terminal rather
		// than resumable.
		var state string
		j.locked(func() {
			j.userCancelled = true
			state = j.state
		})
		j.cancel()
		if state == StateRunning {
			writeJSON(w, http.StatusOK, map[string]string{"id": j.id, "state": "cancelling"})
			return
		}
		s.mu.Lock()
		// Re-check under s.mu: a concurrent DELETE or sweep may have
		// removed it.
		_, present := s.jobs[id]
		delete(s.jobs, id)
		s.mu.Unlock()
		if present {
			s.forget(j)
		}
		writeJSON(w, http.StatusOK, map[string]any{"id": j.id, "state": state, "deleted": true})
	}
}
