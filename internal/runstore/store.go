// Package runstore persists experiment runs as append-only JSON so that
// a wmmd restart — graceful or a crash — does not throw away hours of
// sweep progress.  Each run is one `<id>.jsonl` file under the store
// directory, written as a sequence of self-describing records:
//
//	{"rec":"spec", "id":"run-1", "time":..., "spec":{...}}        submission
//	{"rec":"experiment", "time":..., "name":"fig5", "result":{...}}  checkpoint
//	{"rec":"end", "time":..., "state":"done", "error":""}         terminal state
//
// Every append is flushed and fsynced before it returns, so a record is
// durable the moment the caller proceeds.  A run whose file has a spec
// record but no end record is *interrupted*: on startup the server
// replays the store, restores finished runs as queryable history, and
// resumes interrupted runs from their last checkpointed experiment.
//
// The store knows nothing about the engine's types: specs and results
// cross this boundary as raw JSON, which keeps the dependency arrow
// pointing from the engine to the store and makes the on-disk format a
// plain contract.  Replay is tolerant: a record truncated by a crash
// mid-write (no trailing newline, invalid JSON) is dropped rather than
// poisoning the run, which is exactly the append-only format's point —
// the prefix that did fsync is always a consistent state.
package runstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/faultinject"
)

// Record is one on-disk line.
type Record struct {
	Rec    string          `json:"rec"` // "spec" | "experiment" | "assign" | "end"
	ID     string          `json:"id,omitempty"`
	Time   time.Time       `json:"time"`
	Spec   json.RawMessage `json:"spec,omitempty"`   // on "spec"
	Name   string          `json:"name,omitempty"`   // on "experiment" and "assign"
	Result json.RawMessage `json:"result,omitempty"` // on "experiment"
	Worker string          `json:"worker,omitempty"` // on "assign"
	State  string          `json:"state,omitempty"`  // on "end"
	Error  string          `json:"error,omitempty"`  // on "end"
}

// ExperimentRecord is one checkpointed experiment of a replayed run.
type ExperimentRecord struct {
	Name   string
	Result json.RawMessage
}

// AssignRecord is one recorded dispatch of an experiment job to a
// remote worker under a lease — the audit trail of where a sharded
// run's work went.  Assignments are informational on replay: resume
// correctness rests entirely on experiment checkpoints (an assigned but
// unfinished experiment simply re-executes, byte-identically).
type AssignRecord struct {
	Name   string
	Worker string
	Time   time.Time
}

// RunRecord is one replayed run: the fold of its record sequence.
type RunRecord struct {
	ID      string
	Started time.Time
	Spec    json.RawMessage
	// Experiments holds the last checkpoint per experiment, in first-
	// checkpoint order.
	Experiments []ExperimentRecord
	// Assignments holds every recorded worker assignment, in append
	// order (a re-queued job may appear more than once).
	Assignments []AssignRecord
	// EndState is empty for an interrupted run.
	EndState string
	EndError string
	Finished time.Time
}

// Experiment returns the last checkpointed result for name, or nil.
func (r *RunRecord) Experiment(name string) json.RawMessage {
	for _, e := range r.Experiments {
		if e.Name == name {
			return e.Result
		}
	}
	return nil
}

// Store is a directory of per-run append-only record files — the JSONL
// Storage backend.  All methods are safe for concurrent use.
type Store struct {
	cacheFS
	leaseFS

	dir string

	mu sync.Mutex

	// Fault, when set, injects faults at the append boundary
	// (faultinject.PointStoreAppend).  Set it before handing the store
	// to a server.
	Fault *faultinject.Injector
}

// Open creates (if needed) and probes the store directory.  It fails
// fast and clearly if the directory cannot be created or written — the
// startup-time check behind wmmd's -data flag and /readyz.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("runstore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: create %s: %w", dir, err)
	}
	s := &Store{dir: dir, cacheFS: cacheFS{root: dir}, leaseFS: leaseFS{root: dir}}
	if err := s.Ping(); err != nil {
		return nil, err
	}
	return s, nil
}

// Kind names the backend.
func (s *Store) Kind() string { return KindJSONL }

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Ping probes that the store is writable (backs GET /readyz).
func (s *Store) Ping() error { return pingDir(s.dir) }

// Close releases backend resources; the JSONL layout holds none.
func (s *Store) Close() error { return nil }

// path returns the record file for a run, rejecting IDs that would
// escape the store directory.
func (s *Store) path(id string) (string, error) {
	if err := validateRunID(id); err != nil {
		return "", err
	}
	return filepath.Join(s.dir, id+".jsonl"), nil
}

// append durably adds one record to the run's file.
func (s *Store) append(id string, rec Record) error {
	if err := s.Fault.Fire(faultinject.PointStoreAppend, id+"/"+rec.Rec, 0); err != nil {
		return err
	}
	path, err := s.path(id)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("runstore: marshal %s record: %w", rec.Rec, err)
	}
	line = append(line, '\n')

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkFence(); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("runstore: open %s: %w", path, err)
	}
	defer f.Close()
	if _, err := f.Write(line); err != nil {
		return fmt.Errorf("runstore: append to %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("runstore: sync %s: %w", path, err)
	}
	return nil
}

// Begin records a run's submission: its identity and spec.
func (s *Store) Begin(id string, spec json.RawMessage, at time.Time) error {
	return s.append(id, Record{Rec: "spec", ID: id, Time: at, Spec: spec})
}

// Checkpoint records one completed experiment.  Re-checkpointing the
// same experiment (a resumed attempt) appends a newer record; replay
// keeps the last one.
func (s *Store) Checkpoint(id, experiment string, result json.RawMessage) error {
	return s.append(id, Record{Rec: "experiment", Time: time.Now(), Name: experiment, Result: result})
}

// Assign records the dispatch of one experiment job to a worker under
// a lease.  Purely an audit trail: replay surfaces assignments but
// resume never depends on them (a lost assignment's experiment just
// re-executes from its spec).
func (s *Store) Assign(id, experiment, worker string) error {
	return s.append(id, Record{Rec: "assign", Time: time.Now(), Name: experiment, Worker: worker})
}

// End records a run's terminal state.  A run whose file never receives
// an end record is treated as interrupted and resumed on replay.
func (s *Store) End(id, state, errMsg string) error {
	return s.append(id, Record{Rec: "end", Time: time.Now(), State: state, Error: errMsg})
}

// Delete removes a run's file (DELETE on a finished run, retention GC).
func (s *Store) Delete(id string) error {
	path, err := s.path(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkFence(); err != nil {
		return err
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("runstore: delete %s: %w", path, err)
	}
	return nil
}

// CachePut shadows the embedded cacheFS method with a fence check: a
// deposed coordinator must not mutate the shared cache either.  (Reads
// and CacheSweep stay unfenced — entries are immutable and content-
// addressed, so removing one can at worst cost the rival a re-compute.)
func (s *Store) CachePut(key string, data []byte) error {
	if err := s.checkFence(); err != nil {
		return err
	}
	return s.cacheFS.CachePut(key, data)
}

// Load replays every run file in the store, in run-ID order (run-2
// before run-10), through the segment backend's fold.  Only spec records
// carry an ID on disk; the others take the file's.  Unparseable records —
// the torn tail of a crashed write — are skipped; files without a spec
// record, and files that cannot be read, are ignored entirely.
func (s *Store) Load() ([]*RunRecord, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("runstore: read %s: %w", s.dir, err)
	}
	var runs []*RunRecord
	for _, ent := range entries {
		name := ent.Name()
		id, ok := strings.CutSuffix(name, ".jsonl")
		if ent.IsDir() || !ok {
			continue
		}
		fold := newRecordFold()
		if err := foldFile(filepath.Join(s.dir, name), id, fold); err != nil {
			continue
		}
		runs = append(runs, fold.list()...)
	}
	sortRuns(runs)
	return runs, nil
}

// MaxSeq scans the store for the highest "run-N" identifier, so a
// restarted server continues the sequence instead of reusing IDs.
func (s *Store) MaxSeq() int {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	max := 0
	for _, ent := range entries {
		name := strings.TrimSuffix(ent.Name(), ".jsonl")
		if !strings.HasPrefix(name, "run-") {
			continue
		}
		if n, err := strconv.Atoi(name[len("run-"):]); err == nil && n > max {
			max = n
		}
	}
	return max
}
