package engine

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestJobLifecycleConcurrent drives the one job table from many
// goroutines at once: for every kind, submitters create jobs, list them,
// read their status and cancel some of them mid-run, while another
// goroutine sweeps finished jobs, lists every kind and plays a worker
// that leases batches — completing litmus shards, handing everything
// else back.  Under -race this pins the shared lifecycle's locking;
// afterwards every job must have been removed exactly once (the swept
// counters add up to the submissions) and no executing or retained job
// may be left accounted.
func TestJobLifecycleConcurrent(t *testing.T) {
	// No local slots: work executes only when the lessee below runs it,
	// so cancelled jobs leave no orphaned execution behind.
	ts, api, _ := newTestServerOpts(t, ServerOptions{Parallel: 2, Retain: time.Hour,
		Dispatch: DispatchOptions{LocalSlots: -1}})
	litmus, _ := json.Marshal(litmusSpecJSON)
	optimize, _ := json.Marshal(optSpecJSON)
	kinds := []struct {
		kind     *jobKind
		path     string
		spec     string
		complete int // submissions left to finish on their own
	}{
		{runKind, "/api/v1/runs", `{"experiments": ["fig4"], "short": true, "samples": 1, "seed": 3}`, 0},
		{litmusKind, "/api/v1/litmus", string(litmus), 2},
		{optimizeKind, "/api/v1/optimize", string(optimize), 0},
	}
	pathOf := map[*jobKind]string{}
	for _, k := range kinds {
		pathOf[k.kind] = k.path
	}
	do := func(method, path, body string) (int, []byte) {
		req, _ := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		defer resp.Body.Close()
		var raw json.RawMessage
		json.NewDecoder(resp.Body).Decode(&raw)
		return resp.StatusCode, raw
	}
	state := func(path, id string) string {
		code, raw := do("GET", path+"/"+id, "")
		if code == http.StatusNotFound {
			return "removed"
		}
		var st struct{ State string }
		json.Unmarshal(raw, &st)
		return st.State
	}
	lease := func() {
		id, _, jobs := api.disp.Lease("w1", 4)
		var done []CompletedJob
		for _, j := range jobs {
			if sh, ok := j.Payload.(LitmusShard); ok {
				res, err := RunLitmusShard(context.Background(), sh)
				if err != nil {
					t.Error(err)
					continue
				}
				done = append(done, CompletedJob{RunID: j.runID, Experiment: j.Name, Res: res})
			}
		}
		if id != "" {
			api.disp.Complete(id, done)
		}
	}

	const perKind = 4
	var wg, sweeper sync.WaitGroup
	stop := make(chan struct{})
	sweeper.Add(1)
	go func() {
		defer sweeper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			api.gc(time.Now().Add(2 * time.Hour))
			for _, k := range kinds {
				do("GET", k.path, "")
			}
			lease()
			time.Sleep(5 * time.Millisecond)
		}
	}()
	for _, k := range kinds {
		for i := 0; i < perKind; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				code, raw := do("POST", k.path, k.spec)
				var sub struct{ ID string }
				if json.Unmarshal(raw, &sub); code != http.StatusAccepted || !strings.HasPrefix(sub.ID, k.kind.name+"-") {
					t.Errorf("submit %s = %d %s", k.kind.name, code, raw)
					return
				}
				do("GET", k.path, "")
				if i >= k.complete {
					if code, raw := do("DELETE", k.path+"/"+sub.ID, ""); code != http.StatusOK {
						t.Errorf("cancel %s = %d %s", sub.ID, code, raw)
					}
				}
				deadline := time.Now().Add(2 * time.Minute)
				for state(k.path, sub.ID) == StateRunning {
					if time.Now().After(deadline) {
						t.Errorf("%s still running", sub.ID)
						return
					}
					time.Sleep(10 * time.Millisecond)
				}
			}()
		}
	}
	wg.Wait()
	close(stop)
	sweeper.Wait()

	// Remove whatever the sweep has not, racing one more sweep.
	api.mu.Lock()
	var left []*asyncJob
	for _, j := range api.jobs {
		left = append(left, j)
	}
	api.mu.Unlock()
	var removers sync.WaitGroup
	removers.Add(1)
	go func() {
		defer removers.Done()
		api.gc(time.Now().Add(2 * time.Hour))
	}()
	for _, j := range left {
		path := pathOf[j.kind]
		removers.Add(1)
		go func() {
			defer removers.Done()
			if code, raw := do("DELETE", path+"/"+j.id, ""); code != http.StatusOK && code != http.StatusNotFound {
				t.Errorf("remove %s = %d %s", j.id, code, raw)
			}
		}()
	}
	removers.Wait()

	api.mu.Lock()
	remaining, running := len(api.jobs), len(api.tenantRunning)
	api.mu.Unlock()
	if remaining != 0 || running != 0 {
		t.Errorf("%d jobs still in the table, %d tenants still executing", remaining, running)
	}
	for _, k := range kinds {
		m := api.met.jobs[k.kind.name]
		if swept := m.swept.Value(); swept != perKind {
			t.Errorf("%s swept %v jobs, want each of the %d removed exactly once", k.kind.name, swept, perKind)
		}
		if got := m.runs.Value("submitted"); got != perKind {
			t.Errorf("%s submitted counter = %v, want %d", k.kind.name, got, perKind)
		}
		if got := m.runs.Value(StateDone); got != float64(k.complete) {
			t.Errorf("%s done counter = %v, want %d", k.kind.name, got, k.complete)
		}
	}
	if active, kept := api.met.jobs[runKind.name].active.Value(), api.met.jobs[runKind.name].kept.Value(); active != 0 || kept != 0 {
		t.Errorf("wmm_runs_active = %v, wmm_runs_retained = %v after every run was removed, want 0/0", active, kept)
	}
}
