package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer of the program.  Spans of one job share its Job id; Parent is the
// id of the enclosing span (0 for a root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Job    string        `json:"job,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.  A nil *tracer records
// nothing, so untraced passes call the same code with no overhead beyond
// a nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, job string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records an already finished span, for intervals the program reports
// after the fact (an experiment's wall time in its "done" event).  The
// span is clipped to start no earlier than its parent: a cache-served
// result reports the wall time of the execution that produced it.
func (t *tracer) add(name, job string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job, Start: start.Sub(t.t0), End: end.Sub(t.t0)}
	if parent != 0 {
		s.Start = max(s.Start, t.spans[parent-1].Start)
	}
	t.spans = append(t.spans, s)
}

// rung is the aggregate of every span with one name.
type rung struct {
	Name  string
	Count int
	Self  time.Duration
}

// rungs computes each span name's self time: its duration minus the part
// of its interval covered by its children.  Rungs are sorted by self time,
// largest first.
func (t *tracer) rungs() []rung {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*rung{}
	for _, s := range t.spans {
		r := agg[s.Name]
		if r == nil {
			r = &rung{Name: s.Name}
			agg[s.Name] = r
		}
		r.Count++
		r.Self += s.End - s.Start - covered(s, children[s.ID])
	}
	out := make([]rung, 0, len(agg))
	for _, r := range agg {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return sum + curHi - curLo
}

// write dumps every span as JSON to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printRungs writes the rung table: each rung's self time and its share
// of the traced time.  Self times partition the pass spans, so their sum
// is the traced time.  rootName is the per-pass root span; its self time
// is the part of the passes no named rung accounts for, returned as the
// unattributed share.
func printRungs(w io.Writer, rs []rung, rootName string) (unattributed float64) {
	var traced time.Duration
	for _, r := range rs {
		traced += r.Self
	}
	fmt.Fprintf(w, "%-34s %7s %11s %7s\n", "rung", "spans", "self_s", "share")
	for _, r := range rs {
		share := secs(r.Self) / secs(traced)
		if r.Name == rootName {
			unattributed = share
		}
		fmt.Fprintf(w, "%-34s %7d %11.4f %6.1f%%\n", r.Name, r.Count, secs(r.Self), 100*share)
	}
	return unattributed
}
