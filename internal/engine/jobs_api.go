package engine

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// Async-job API, shared by litmus campaigns and optimizer jobs:
//
//	POST   /api/v1/{kind}        submit a job, returns {"id", "state",
//	                             "total"}; 429 under saturation
//	GET    /api/v1/{kind}        job statuses, in submission order (paginated)
//	GET    /api/v1/{kind}/{id}   status; ?results=1 includes partial results
//	                             (litmus); ?canonical=1 serves the finished
//	                             job's canonical JSON
//	DELETE /api/v1/{kind}/{id}   cancel a running job / remove a finished one
//
// Async jobs are in-memory only: unlike experiment runs they are not
// persisted to the run store, because any of them is cheap to resubmit —
// litmus shards regenerate from their descriptor and optimizer cells
// resolve from the result cache.  The lifecycle is the same for every
// kind; what differs lives behind jobKind (submission) and jobWork
// (execution, status, canonical bytes).

// jobKind describes one async-job kind to the shared handlers.
type jobKind struct {
	name string // ID prefix, status "kind", route segment and metric key
	noun string // the job in messages: "litmus campaign", "optimize job"
	unit string // what admission counts: "shards", "cells"
	// plan decodes and normalises a submission body; an error is a 400.
	plan func(body io.Reader, defaultParallel int) (jobPlan, error)
}

// jobPlan is a validated submission.
type jobPlan struct {
	work      jobWork
	tenant    *string // the spec's tenant field, set to the effective tenant
	timeoutMs int64
	// size is the first wave of dispatch jobs: the admission reservation
	// and the "total" of the submit response.
	size int
}

// jobWork is the per-kind half of an async job.  drive runs on the
// job's own goroutine; the other methods run under the job's lock.
type jobWork interface {
	// drive executes the job through the dispatcher.  It returns the
	// results that classify the final state (nil for a kind that has no
	// partial outcome), a settle func that records the kind's final
	// fields, and the job's error.
	drive(ctx context.Context, s *Server, j *asyncJob) (results []*Result, settle func(), err error)
	// record folds one finished dispatch job into the progress counters.
	record(res *Result)
	// status snapshots the kind's status document; listing trims it to a
	// list row.
	status(j *asyncJob, withResults, listing bool) jobStatus
	// canonical returns a finished job's byte-stable JSON, or nil when
	// the job ended without any.
	canonical() ([]byte, error)
}

// jobStatus is a kind's status document; every one carries the job ID
// the listing paginates by.
type jobStatus interface{ jobID() string }

// asyncJob is one submitted litmus campaign or optimizer job.
type asyncJob struct {
	id       string
	kind     *jobKind
	tenant   string
	cancel   context.CancelFunc
	admitted int

	mu       sync.Mutex
	state    string
	started  time.Time
	finished time.Time
	err      string
	work     jobWork
}

// locked runs f under the job's lock.
func (j *asyncJob) locked(f func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	f()
}

// ExperimentStarted and ExperimentDone make the job the dispatcher's
// progress Sink.
func (j *asyncJob) ExperimentStarted(string) {}

func (j *asyncJob) ExperimentDone(res *Result) {
	j.locked(func() { j.work.record(res) })
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
		p, err := k.plan(r.Body, s.defaultParallel)
		if err != nil {
			writeErr(w, http.StatusBadRequest, ErrCodeInvalidArgument, "bad %s spec: %v", k.name, err)
			return
		}
		tenant, ok := resolveTenant(w, r, *p.tenant)
		if !ok {
			return
		}
		*p.tenant = tenant
		j := &asyncJob{kind: k, tenant: tenant, admitted: p.size, state: StateRunning, work: p.work}
		ctx, ok := s.admitJob(w, tenant, k.unit, p.size, p.timeoutMs, func(cancel context.CancelFunc) {
			s.jobSeq[k.name]++
			j.id = fmt.Sprintf("%s-%d", k.name, s.jobSeq[k.name])
			j.cancel = cancel
			j.started = time.Now()
			s.jobs[j.id] = j
		})
		if !ok {
			return
		}
		s.met.jobs[k.name].runs.Inc("submitted")
		go s.executeJob(ctx, j)
		writeJSON(w, http.StatusAccepted, map[string]any{"id": j.id, "state": StateRunning, "total": p.size})
	}
}

// executeJob drives an async job to completion on its own goroutine.
func (s *Server) executeJob(ctx context.Context, j *asyncJob) {
	defer s.active.Done()
	defer j.cancel()
	defer s.tenantRunningDone(j.tenant)

	results, settle, err := j.work.drive(ctx, s, j)

	j.mu.Lock()
	settle()
	j.finished = time.Now()
	j.state = finalState(ctx, err, results)
	if err != nil {
		j.err = err.Error()
	}
	state := j.state
	j.mu.Unlock()
	s.met.jobs[j.kind.name].runs.Inc(state)
}

// lookupJob finds the job a request names, if it is of kind k.
func (s *Server) lookupJob(k *jobKind, r *http.Request) (*asyncJob, string) {
	id := r.PathValue("id")
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.jobs[id]; j != nil && j.kind == k {
		return j, id
	}
	return nil, id
}

func (s *Server) handleJobList(k *jobKind) http.HandlerFunc {
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
		writeJobPage(w, r, out, jobStatus.jobID)
	}
}

func (s *Server) handleJobStatus(k *jobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, id := s.lookupJob(k, r)
		if j == nil {
			writeErr(w, http.StatusNotFound, ErrCodeNotFound, "unknown %s %q", k.noun, id)
			return
		}
		if r.URL.Query().Get("canonical") == "" {
			var st jobStatus
			j.locked(func() { st = j.work.status(j, r.URL.Query().Get("results") != "", false) })
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
// from the catalogue.
func (s *Server) handleJobCancel(k *jobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, id := s.lookupJob(k, r)
		if j == nil {
			writeErr(w, http.StatusNotFound, ErrCodeNotFound, "unknown %s %q", k.noun, id)
			return
		}
		var state string
		j.locked(func() { state = j.state })
		j.cancel()
		if state == StateRunning {
			writeJSON(w, http.StatusOK, map[string]string{"id": j.id, "state": "cancelling"})
			return
		}
		s.mu.Lock()
		_, present := s.jobs[id]
		delete(s.jobs, id)
		s.mu.Unlock()
		if present {
			s.met.jobs[k.name].swept.Inc()
		}
		writeJSON(w, http.StatusOK, map[string]any{"id": j.id, "state": state, "deleted": true})
	}
}
