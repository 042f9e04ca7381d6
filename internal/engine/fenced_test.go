package engine

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runstore"
)

// Fenced-store behaviour at the API surface: when the run store refuses
// mutations with runstore.ErrFenced (a rival coordinator holds a newer
// lease claim), a submission — whose durability depends on the Begin
// record — must be refused outright with the standard "unavailable"
// envelope, while non-critical mutations degrade: the operation
// completes in memory, the fenced write is counted, and the OnFenced
// callback fires exactly once so the HA controller can depose.

// fenceOut arms the given handle as a displaced leader: a rival handle
// on the same directory claims the lease, then the leader's handle is
// fenced at the same term under its own name — the state a lost
// double-claim race leaves behind, and the sharpest case because the
// term alone cannot distinguish the two claimants.
func fenceOut(t *testing.T, dir string, leader *runstore.Store) {
	t.Helper()
	rival, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rival.Close() })
	lease, ok, err := rival.TryAcquireLease("rival", time.Minute)
	if err != nil || !ok {
		t.Fatalf("rival acquire: ok=%v err=%v", ok, err)
	}
	if err := leader.Fence("old-leader", lease.Term); err != nil {
		t.Fatal(err)
	}
}

// TestFencedSubmitRefused: with the store fenced, POST /api/v1/runs
// answers 503 "unavailable", registers nothing, fires OnFenced once
// (even across repeated submissions), and counts every fenced write.
func TestFencedSubmitRefused(t *testing.T) {
	dir := t.TempDir()
	store, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	var fenced atomic.Int32
	ts, api, _ := newTestServerOpts(t, ServerOptions{
		Parallel: 2,
		Store:    store,
		OnFenced: func() { fenced.Add(1) },
	})
	fenceOut(t, dir, store)

	for attempt := 1; attempt <= 2; attempt++ {
		resp, err := http.Post(ts.URL+"/api/v1/runs", "application/json",
			strings.NewReader(`{"experiments": ["fig4"], "short": true, "samples": 1, "seed": 3}`))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || out.Error.Code != ErrCodeUnavailable {
			t.Fatalf("attempt %d: fenced submit = %d %+v, want 503 unavailable", attempt, resp.StatusCode, out)
		}
		if !strings.Contains(out.Error.Message, "fenced") {
			t.Fatalf("attempt %d: envelope message %q should name the fence", attempt, out.Error.Message)
		}
	}

	// The refused submissions left nothing behind: no registered runs,
	// and the dispatcher/active accounting was unwound (Shutdown in the
	// test cleanup would hang on a leaked active.Add).
	api.mu.Lock()
	kept := len(api.jobs)
	api.mu.Unlock()
	if kept != 0 {
		t.Fatalf("%d runs registered after fenced submits, want 0", kept)
	}
	if got := fenced.Load(); got != 1 {
		t.Fatalf("OnFenced fired %d times, want exactly 1", got)
	}
	if got := api.met.storeFenced.Value(); got < 2 {
		t.Fatalf("wmm_store_fenced_writes_total = %v, want >= 2", got)
	}
}

// TestFencedDeleteDegrades: removal of a finished run is not durability
// critical — the catalogue entry goes, the fenced store Delete is
// counted, OnFenced fires, and the client still gets its 200.
func TestFencedDeleteDegrades(t *testing.T) {
	dir := t.TempDir()
	store, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	var fenced atomic.Int32
	ts, api, _ := newTestServerOpts(t, ServerOptions{
		Parallel: 2,
		Store:    store,
		OnFenced: func() { fenced.Add(1) },
	})

	// Run to completion while still the rightful leader.
	id := postRun(t, ts, `{"experiments": ["fig4"], "short": true, "samples": 1, "seed": 3}`)
	if st := waitState(t, ts, id, 2*time.Minute); st.State != StateDone {
		t.Fatalf("run ended %s", st.State)
	}
	fenceOut(t, dir, store)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/runs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fenced delete = %d, want 200 (degraded, not refused)", resp.StatusCode)
	}
	api.mu.Lock()
	_, still := api.jobs[id]
	api.mu.Unlock()
	if still {
		t.Fatal("run still in the catalogue after delete")
	}
	if fenced.Load() != 1 {
		t.Fatalf("OnFenced fired %d times, want 1", fenced.Load())
	}
	if api.met.storeFenced.Value() < 1 {
		t.Fatal("fenced Delete not counted")
	}
}
