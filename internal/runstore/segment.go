package runstore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SegmentStore is the segmented object-store Storage backend: all runs
// share a sequence of append-only log segments instead of one file per
// run.  The layout is three kinds of file under one directory:
//
//	MANIFEST.json      {"sealed":["compact-00000007.log","seg-00000008.log"],"seq":9}
//	seg-N.log          record lines; exactly one is active, the rest sealed
//	compact-N.log      a folded rewrite of older sealed segments
//
// Every record line carries the run ID (unlike the per-run JSONL
// layout, where the file name scopes the records), so a segment is
// self-describing.  Appends go to the single active segment and fsync
// before returning; when it grows past MaxSegmentBytes it is sealed —
// appended to the manifest's `sealed` list, which is committed via
// temp+fsync+rename — and a fresh active segment starts.  Sealed
// segments are immutable forever after.
//
// Replay folds the manifest's sealed segments in list order, then the
// active segment.  List order is authoritative, not segment numbers: a
// compacted segment carries a newer sequence number than the segments
// it folded, yet must replay before any segment written after them.
//
// Compaction is crash-safe by construction: fold the sealed segments
// into a new compact-N.log (invisible until referenced), fsync it,
// commit a manifest naming it, and only then delete the replaced files.
// A crash leaves either the old manifest (the compact file is an orphan,
// removed on open) or the new one (the old segments are orphans, ditto).
// Run deletion appends a tombstone record ({"rec":"delete"}); compaction
// is what physically reclaims tombstoned runs.
type SegmentStore struct {
	cacheFS
	leaseFS

	dir string

	// MaxSegmentBytes seals the active segment once it reaches this
	// size.  Set before first use; defaults to 8 MiB.
	MaxSegmentBytes int64
	// CompactAfter folds sealed segments into one when their count
	// reaches it.  Set before first use; defaults to 6, 0 disables
	// auto-compaction.
	CompactAfter int

	mu         sync.Mutex
	man        manifest
	active     *os.File
	activeName string
	activeSize int64
	closed     bool
}

const (
	manifestFile        = "MANIFEST.json"
	defaultSegBytes     = 8 << 20
	defaultCompactAfter = 6
)

// manifest is the store's committed view of its immutable segments.
type manifest struct {
	// Sealed lists immutable segment files in replay order.
	Sealed []string `json:"sealed"`
	// Seq is the highest segment sequence number ever committed.
	Seq int `json:"seq"`
}

// OpenSegment creates (if needed) and recovers a segment store at dir.
func OpenSegment(dir string) (*SegmentStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("runstore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: create %s: %w", dir, err)
	}
	s := &SegmentStore{
		cacheFS:         cacheFS{root: dir},
		leaseFS:         leaseFS{root: dir},
		dir:             dir,
		MaxSegmentBytes: defaultSegBytes,
		CompactAfter:    defaultCompactAfter,
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	if err := s.Ping(); err != nil {
		return nil, err
	}
	return s, nil
}

// Kind names the backend.
func (s *SegmentStore) Kind() string { return KindSegment }

// Dir returns the store directory.
func (s *SegmentStore) Dir() string { return s.dir }

// Ping probes that the store is writable (backs GET /readyz).
func (s *SegmentStore) Ping() error { return pingDir(s.dir) }

// Close seals off the active segment's file handle.  Records already
// appended stay durable; a reopened store resumes appending to the same
// segment.
func (s *SegmentStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.active != nil {
		err := s.active.Close()
		s.active = nil
		return err
	}
	return nil
}

// segSeq extracts the sequence number from "seg-N.log"/"compact-N.log"
// names, or -1.
func segSeq(name string) int {
	base := strings.TrimSuffix(name, ".log")
	if base == name {
		return -1
	}
	for _, prefix := range []string{"seg-", "compact-"} {
		if rest, ok := strings.CutPrefix(base, prefix); ok {
			if n, err := strconv.Atoi(rest); err == nil && n >= 0 {
				return n
			}
		}
	}
	return -1
}

// recover rebuilds in-memory state from the manifest and directory
// listing: orphaned compaction output is removed, unmanifested sealed
// segments are re-adopted, and the newest unmanifested segment becomes
// the active one.
func (s *SegmentStore) recover() error {
	data, err := os.ReadFile(filepath.Join(s.dir, manifestFile))
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &s.man); err != nil {
			// The manifest is committed atomically, so a torn one is real
			// corruption — refuse to guess at replay order.
			return fmt.Errorf("runstore: corrupt manifest %s: %w", manifestFile, err)
		}
	case os.IsNotExist(err):
		// Fresh store.
	default:
		return fmt.Errorf("runstore: read manifest: %w", err)
	}

	sealed := make(map[string]bool, len(s.man.Sealed))
	for _, name := range s.man.Sealed {
		sealed[name] = true
		if n := segSeq(name); n > s.man.Seq {
			s.man.Seq = n
		}
	}

	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("runstore: read %s: %w", s.dir, err)
	}
	var loose []string // seg-*.log present but not in the manifest
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || sealed[name] {
			continue
		}
		switch {
		case strings.HasPrefix(name, "compact-") && strings.HasSuffix(name, ".log"):
			// Output of a compaction whose manifest never committed.
			os.Remove(filepath.Join(s.dir, name))
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".log") && segSeq(name) >= 0:
			loose = append(loose, name)
			if n := segSeq(name); n > s.man.Seq {
				s.man.Seq = n
			}
		}
	}
	sort.Slice(loose, func(i, j int) bool { return segSeq(loose[i]) < segSeq(loose[j]) })

	// The newest loose segment resumes as active; any older ones are a
	// crash between sealing and the manifest commit — adopt them in
	// sequence order.
	if len(loose) > 1 {
		s.man.Sealed = append(s.man.Sealed, loose[:len(loose)-1]...)
		if err := s.writeManifestLocked(); err != nil {
			return err
		}
	}
	if len(loose) > 0 {
		name := loose[len(loose)-1]
		path := filepath.Join(s.dir, name)
		// Trim a torn tail — bytes past the last newline are a crash
		// mid-append — so new records never concatenate onto a partial
		// line.  (Replay would drop the merged garbage line, silently
		// losing the first post-restart record.)
		if data, err := os.ReadFile(path); err == nil {
			if cut := bytes.LastIndexByte(data, '\n') + 1; cut < len(data) {
				if err := os.Truncate(path, int64(cut)); err != nil {
					return fmt.Errorf("runstore: trim torn segment tail: %w", err)
				}
			}
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("runstore: reopen active segment: %w", err)
		}
		info, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("runstore: stat active segment: %w", err)
		}
		s.active, s.activeName, s.activeSize = f, name, info.Size()
		return nil
	}
	return s.newActiveLocked()
}

// newActiveLocked starts a fresh active segment.
func (s *SegmentStore) newActiveLocked() error {
	seq := s.man.Seq + 1
	name := fmt.Sprintf("seg-%08d.log", seq)
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("runstore: create segment %s: %w", name, err)
	}
	s.man.Seq = seq
	s.active, s.activeName, s.activeSize = f, name, 0
	return nil
}

// writeManifestLocked commits the manifest (temp + fsync + rename).
func (s *SegmentStore) writeManifestLocked() error {
	data, err := json.MarshalIndent(s.man, "", "  ")
	if err != nil {
		return fmt.Errorf("runstore: marshal manifest: %w", err)
	}
	return commitFile(filepath.Join(s.dir, manifestFile), append(data, '\n'))
}

// appendRec durably appends one record to the active segment, sealing
// and compacting as thresholds are crossed.
func (s *SegmentStore) appendRec(rec Record) error {
	if err := validateRunID(rec.ID); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("runstore: marshal %s record: %w", rec.Rec, err)
	}
	line = append(line, '\n')

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("runstore: store closed")
	}
	if err := s.checkFence(); err != nil {
		return err
	}
	if s.active == nil {
		if err := s.newActiveLocked(); err != nil {
			return err
		}
	}
	if _, err := s.active.Write(line); err != nil {
		return fmt.Errorf("runstore: append to %s: %w", s.activeName, err)
	}
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("runstore: sync %s: %w", s.activeName, err)
	}
	s.activeSize += int64(len(line))
	if s.activeSize >= s.MaxSegmentBytes {
		if err := s.sealLocked(); err != nil {
			return err
		}
		if s.CompactAfter > 0 && len(s.man.Sealed) >= s.CompactAfter {
			if err := s.compactLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// sealLocked makes the active segment immutable and starts a new one.
func (s *SegmentStore) sealLocked() error {
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("runstore: seal %s: %w", s.activeName, err)
	}
	s.active = nil
	s.man.Sealed = append(s.man.Sealed, s.activeName)
	if err := s.writeManifestLocked(); err != nil {
		return err
	}
	return s.newActiveLocked()
}

// Compact folds every sealed segment — after first sealing the active
// one if it holds records — into a single compact segment.  Exposed for
// tests and offline maintenance; appendRec triggers it automatically
// via CompactAfter.
func (s *SegmentStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("runstore: store closed")
	}
	if err := s.checkFence(); err != nil {
		return err
	}
	if s.activeSize > 0 {
		if err := s.sealLocked(); err != nil {
			return err
		}
	}
	if len(s.man.Sealed) == 0 {
		return nil
	}
	return s.compactLocked()
}

// compactLocked rewrites all sealed segments as one folded compact
// segment and commits a manifest referencing only it.
func (s *SegmentStore) compactLocked() error {
	fold := newRecordFold()
	for _, name := range s.man.Sealed {
		if err := foldFile(filepath.Join(s.dir, name), "", fold); err != nil {
			return fmt.Errorf("runstore: compact read %s: %w", name, err)
		}
	}
	seq := s.man.Seq + 1
	name := fmt.Sprintf("compact-%08d.log", seq)
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("runstore: create %s: %w", name, err)
	}
	w := bufio.NewWriter(f)
	for _, id := range fold.order {
		if err := writeFolded(w, fold.runs[id]); err != nil {
			f.Close()
			os.Remove(filepath.Join(s.dir, name))
			return err
		}
	}
	if err := w.Flush(); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(filepath.Join(s.dir, name))
		return fmt.Errorf("runstore: write %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(filepath.Join(s.dir, name))
		return fmt.Errorf("runstore: close %s: %w", name, err)
	}

	// The manifest rewrite is compaction's commit point: re-validate the
	// fence here, after the (potentially long) fold, so a coordinator
	// deposed mid-compaction cannot publish a manifest over the rival's.
	if err := s.checkFence(); err != nil {
		os.Remove(filepath.Join(s.dir, name))
		return err
	}
	old := s.man.Sealed
	s.man = manifest{Sealed: []string{name}, Seq: seq}
	if err := s.writeManifestLocked(); err != nil {
		return err
	}
	// The new manifest is the commit point; the replaced segments are
	// now unreferenced and their removal is free to fail (recover
	// treats them as loose only if named seg-*, and their sequence
	// numbers are below the compact segment's — worst case they are
	// re-adopted and re-compacted, which is idempotent).
	for _, n := range old {
		os.Remove(filepath.Join(s.dir, n))
	}
	return nil
}

// writeFolded re-serialises one folded run as record lines.
func writeFolded(w *bufio.Writer, run *RunRecord) error {
	write := func(rec Record) error {
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("runstore: compact marshal: %w", err)
		}
		line = append(line, '\n')
		_, err = w.Write(line)
		return err
	}
	if err := write(Record{Rec: "spec", ID: run.ID, Time: run.Started, Spec: run.Spec}); err != nil {
		return err
	}
	for _, e := range run.Experiments {
		if err := write(Record{Rec: "experiment", ID: run.ID, Name: e.Name, Result: e.Result}); err != nil {
			return err
		}
	}
	for _, a := range run.Assignments {
		if err := write(Record{Rec: "assign", ID: run.ID, Time: a.Time, Name: a.Name, Worker: a.Worker}); err != nil {
			return err
		}
	}
	if run.EndState != "" {
		if err := write(Record{Rec: "end", ID: run.ID, Time: run.Finished, State: run.EndState, Error: run.EndError}); err != nil {
			return err
		}
	}
	return nil
}

// Begin records a run's submission: its identity and spec.
func (s *SegmentStore) Begin(id string, spec json.RawMessage, at time.Time) error {
	return s.appendRec(Record{Rec: "spec", ID: id, Time: at, Spec: spec})
}

// Checkpoint records one completed experiment.
func (s *SegmentStore) Checkpoint(id, experiment string, result json.RawMessage) error {
	return s.appendRec(Record{Rec: "experiment", ID: id, Time: time.Now(), Name: experiment, Result: result})
}

// Assign records the dispatch of one experiment job to a worker.
func (s *SegmentStore) Assign(id, experiment, worker string) error {
	return s.appendRec(Record{Rec: "assign", ID: id, Time: time.Now(), Name: experiment, Worker: worker})
}

// End records a run's terminal state.
func (s *SegmentStore) End(id, state, errMsg string) error {
	return s.appendRec(Record{Rec: "end", ID: id, Time: time.Now(), State: state, Error: errMsg})
}

// Delete appends a tombstone hiding the run from replay; compaction
// physically reclaims it.
func (s *SegmentStore) Delete(id string) error {
	return s.appendRec(Record{Rec: "delete", ID: id, Time: time.Now()})
}

// CachePut shadows the embedded cacheFS method with a fence check; see
// (*Store).CachePut.
func (s *SegmentStore) CachePut(key string, data []byte) error {
	if err := s.checkFence(); err != nil {
		return err
	}
	return s.cacheFS.CachePut(key, data)
}

// Load replays the manifest's sealed segments in order, then the active
// segment, folding records into per-run state.  It holds the store lock
// for the duration so the segment set cannot shift mid-replay; Load is
// a startup/admin operation, not a hot path.
func (s *SegmentStore) Load() ([]*RunRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fold := newRecordFold()
	names := append([]string{}, s.man.Sealed...)
	if s.activeName != "" {
		names = append(names, s.activeName)
	}
	for _, name := range names {
		if err := foldFile(filepath.Join(s.dir, name), "", fold); err != nil {
			return nil, fmt.Errorf("runstore: replay %s: %w", name, err)
		}
	}
	runs := fold.list()
	sortRuns(runs)
	return runs, nil
}

// MaxSeq reports the highest live "run-N" identifier.
func (s *SegmentStore) MaxSeq() int {
	runs, err := s.Load()
	if err != nil {
		return 0
	}
	max := 0
	for _, r := range runs {
		if rest, ok := strings.CutPrefix(r.ID, "run-"); ok {
			if n, err := strconv.Atoi(rest); err == nil && n > max {
				max = n
			}
		}
	}
	return max
}

// recordFold accumulates the replayed state of every run across
// segment boundaries.
type recordFold struct {
	runs  map[string]*RunRecord
	order []string
}

func newRecordFold() *recordFold {
	return &recordFold{runs: map[string]*RunRecord{}}
}

// list returns the live runs in first-spec order.
func (f *recordFold) list() []*RunRecord {
	runs := make([]*RunRecord, 0, len(f.order))
	for _, id := range f.order {
		runs = append(runs, f.runs[id])
	}
	return runs
}

// apply folds one record; records are self-describing via ID.
func (f *recordFold) apply(rec Record) {
	id := rec.ID
	if id == "" {
		return
	}
	run := f.runs[id]
	switch rec.Rec {
	case "spec":
		if run != nil {
			return // first spec wins
		}
		f.runs[id] = &RunRecord{ID: id, Started: rec.Time, Spec: rec.Spec}
		f.order = append(f.order, id)
	case "experiment":
		if run == nil || rec.Name == "" {
			return
		}
		for i := range run.Experiments {
			if run.Experiments[i].Name == rec.Name {
				run.Experiments[i].Result = rec.Result
				return
			}
		}
		run.Experiments = append(run.Experiments, ExperimentRecord{Name: rec.Name, Result: rec.Result})
	case "assign":
		if run == nil || rec.Name == "" {
			return
		}
		run.Assignments = append(run.Assignments, AssignRecord{Name: rec.Name, Worker: rec.Worker, Time: rec.Time})
	case "end":
		if run == nil {
			return
		}
		run.EndState = rec.State
		run.EndError = rec.Error
		run.Finished = rec.Time
	case "delete":
		if run == nil {
			return
		}
		delete(f.runs, id)
		for i, oid := range f.order {
			if oid == id {
				f.order = append(f.order[:i], f.order[i+1:]...)
				break
			}
		}
	}
}

// foldFile replays one record file into the fold, giving records that
// carry no ID the ID defaultID (a JSONL run file's experiment, assign
// and end records).  Unparseable lines — the torn tail of a crashed
// write — are skipped: the fsynced prefix is always a consistent state.
func foldFile(path, defaultID string, fold *recordFold) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20) // results can be large
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			continue
		}
		if rec.ID == "" {
			rec.ID = defaultID
		}
		fold.apply(rec)
	}
	return sc.Err()
}
