package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/wmm/client"
)

// newDispatchServer builds a server with the given dispatch options.
func newDispatchServer(t *testing.T, d DispatchOptions) (*httptest.Server, *Server) {
	t.Helper()
	ts, api, _ := newTestServerOpts(t, ServerOptions{Parallel: 2, Dispatch: d})
	return ts, api
}

// decodeEnvelope parses the uniform error envelope from a raw response.
func decodeEnvelope(t *testing.T, resp *http.Response) (code, message string) {
	t.Helper()
	defer resp.Body.Close()
	var env struct {
		Err struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("response is not an error envelope: %v", err)
	}
	if env.Err.Code == "" || env.Err.Message == "" {
		t.Fatalf("envelope missing code/message: %+v", env)
	}
	return env.Err.Code, env.Err.Message
}

// TestDispatchCanonicalIdentity verifies the tentpole's core invariant
// at the local-slots level: a run executed through the sharded
// dispatcher (queue, slots, out-of-order completion) serves canonical
// JSON byte-identical to a direct in-process Engine.Run of the same
// spec.
func TestDispatchCanonicalIdentity(t *testing.T) {
	eng := New(Options{Workers: 2})
	defer eng.Close()
	direct, err := eng.Run(context.Background(), []string{"fig4", "txt3"},
		RunOptions{Samples: 2, Seed: 3, Short: true, Parallel: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CanonicalRunJSON(direct)
	if err != nil {
		t.Fatal(err)
	}

	ts, _ := newDispatchServer(t, DispatchOptions{})
	id := postRun(t, ts, `{"experiments": ["fig4", "txt3"], "short": true, "samples": 2, "seed": 3, "parallel": 2}`)
	if st := waitState(t, ts, id, 2*time.Minute); st.State != StateDone {
		t.Fatalf("dispatched run ended %s (err %q)", st.State, st.Error)
	}
	got, err := testClient(ts).CanonicalRun(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(got, want) {
		t.Errorf("dispatched run diverged from direct Engine.Run:\n--- direct ---\n%s\n--- dispatched ---\n%s", want, got)
	}
}

// TestAdmissionControl verifies backpressure: once the dispatch queue
// is saturated, POST /api/v1/runs refuses with 429, a Retry-After hint
// and the "saturated" envelope code — and succeeds again once capacity
// frees up, which the typed client rides out automatically.
func TestAdmissionControl(t *testing.T) {
	ts, _ := newDispatchServer(t, DispatchOptions{MaxQueue: 1, RetryAfter: time.Second})
	cl := testClient(ts)

	// txt1 at full size pins the only queue slot for minutes.
	id := postRun(t, ts, `{"experiments": ["txt1"], "seed": 3}`)

	// Raw request: inspect the refusal wire shape.
	resp, err := http.Post(ts.URL+"/api/v1/runs", "application/json",
		strings.NewReader(`{"experiments": ["fig4"], "short": true, "samples": 1, "seed": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		resp.Body.Close()
		t.Fatalf("saturated submit = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 missing Retry-After header")
	}
	if code, _ := decodeEnvelope(t, resp); code != ErrCodeSaturated {
		t.Errorf("429 envelope code = %q, want %q", code, ErrCodeSaturated)
	}

	// Typed client without retries surfaces the refusal as IsSaturated.
	_, err = client.New(ts.URL, client.WithRetry(0, 0)).SubmitRun(context.Background(),
		client.RunSpec{Experiments: []string{"fig4"}, Short: true, Samples: 1, Seed: 3})
	if !client.IsSaturated(err) {
		t.Errorf("saturated submit via client: %v, want IsSaturated", err)
	}
	var apiErr *client.Error
	if errors.As(err, &apiErr) && apiErr.RetryAfter <= 0 {
		t.Errorf("client did not capture Retry-After: %+v", apiErr)
	}

	// Free the slot, then let the client's retry-on-429 do its job: the
	// first attempt may still see saturation, the retry lands.
	if _, err := cl.CancelRun(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts, id, time.Minute)
	sub, err := cl.SubmitRun(context.Background(),
		client.RunSpec{Experiments: []string{"fig4"}, Short: true, Samples: 1, Seed: 3})
	if err != nil {
		t.Fatalf("submit after capacity freed: %v", err)
	}
	if st := waitState(t, ts, sub.ID, 2*time.Minute); st.State != StateDone {
		t.Errorf("post-saturation run ended %s (err %q)", st.State, st.Error)
	}
}

// TestErrorEnvelope verifies every v1 failure mode answers with the
// uniform {"error": {"code", "message"}} envelope — including the two
// regressions called out in the redesign: DELETE of an unknown run id
// and a malformed POST body.
func TestErrorEnvelope(t *testing.T) {
	ts, _ := newTestServer(t)

	t.Run("get unknown run", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/api/v1/runs/nope")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d, want 404", resp.StatusCode)
		}
		if code, _ := decodeEnvelope(t, resp); code != ErrCodeNotFound {
			t.Errorf("code = %q, want %q", code, ErrCodeNotFound)
		}
	})

	t.Run("delete unknown run", func(t *testing.T) {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/runs/nope", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d, want 404", resp.StatusCode)
		}
		if code, _ := decodeEnvelope(t, resp); code != ErrCodeNotFound {
			t.Errorf("code = %q, want %q", code, ErrCodeNotFound)
		}
	})

	t.Run("malformed submit body", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/api/v1/runs", "application/json",
			strings.NewReader(`{"experiments": ["fig4"`)) // truncated JSON
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		if code, _ := decodeEnvelope(t, resp); code != ErrCodeInvalidArgument {
			t.Errorf("code = %q, want %q", code, ErrCodeInvalidArgument)
		}
	})

	t.Run("negative spec fields", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/api/v1/runs", "application/json",
			strings.NewReader(`{"experiments": ["fig4"], "samples": -1}`))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		if code, _ := decodeEnvelope(t, resp); code != ErrCodeInvalidArgument {
			t.Errorf("code = %q, want %q", code, ErrCodeInvalidArgument)
		}
	})

	t.Run("canonical of running run", func(t *testing.T) {
		id := postRun(t, ts, `{"experiments": ["txt1"], "seed": 3}`)
		resp, err := http.Get(ts.URL + "/api/v1/runs/" + id + "?canonical=1")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("status = %d, want 409", resp.StatusCode)
		}
		if code, _ := decodeEnvelope(t, resp); code != ErrCodeConflict {
			t.Errorf("code = %q, want %q", code, ErrCodeConflict)
		}
		if _, err := testClient(ts).CancelRun(context.Background(), id); err != nil {
			t.Fatal(err)
		}
		waitState(t, ts, id, time.Minute)
	})

	t.Run("bad pagination params", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/api/v1/experiments?limit=zero")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		if code, _ := decodeEnvelope(t, resp); code != ErrCodeInvalidArgument {
			t.Errorf("code = %q, want %q", code, ErrCodeInvalidArgument)
		}
	})
}

// TestRunsPagination verifies cursor pagination on GET /api/v1/runs.
func TestRunsPagination(t *testing.T) {
	ts, _ := newTestServer(t)
	cl := testClient(ts)
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, postRun(t, ts, `{"experiments": ["fig4"], "short": true, "samples": 1, "seed": 3}`))
	}
	for _, id := range ids {
		waitState(t, ts, id, 2*time.Minute)
	}

	first, err := cl.Runs(context.Background(), client.Page{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Items) != 2 || first.Items[0].ID != ids[0] || first.Items[1].ID != ids[1] {
		t.Fatalf("first page = %d items (%+v)", len(first.Items), first.Items)
	}
	if first.NextAfter != ids[1] {
		t.Fatalf("first page NextAfter = %q, want %q", first.NextAfter, ids[1])
	}
	second, err := cl.Runs(context.Background(), client.Page{Limit: 2, After: first.NextAfter})
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Items) != 1 || second.Items[0].ID != ids[2] {
		t.Fatalf("second page = %+v", second.Items)
	}
	if second.NextAfter != "" {
		t.Errorf("last page NextAfter = %q, want empty", second.NextAfter)
	}
}

// TestLegacyShims verifies the unversioned routes still answer exactly
// as before the redesign — bare-array listings, same status codes — and
// advertise their deprecation.
func TestLegacyShims(t *testing.T) {
	ts, _ := newTestServer(t)

	resp, err := http.Get(ts.URL + "/experiments")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("Deprecation") != "true" {
		t.Error("legacy /experiments missing Deprecation header")
	}
	if link := resp.Header.Get("Link"); !strings.Contains(link, "/api/v1/experiments") {
		t.Errorf("legacy /experiments Link = %q, want successor-version", link)
	}
	var exps []client.ExperimentInfo
	if err := json.NewDecoder(resp.Body).Decode(&exps); err != nil {
		t.Fatalf("legacy /experiments is no longer a bare array: %v", err)
	}
	resp.Body.Close()
	if len(exps) != 20 {
		t.Fatalf("legacy catalogue has %d experiments, want 20", len(exps))
	}

	// Legacy submit + status + list still work end to end.
	resp, err = http.Post(ts.URL+"/runs", "application/json",
		strings.NewReader(`{"experiments": ["fig4"], "short": true, "samples": 1, "seed": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("legacy POST /runs = %d, want 202", resp.StatusCode)
	}
	if resp.Header.Get("Deprecation") != "true" {
		t.Error("legacy POST /runs missing Deprecation header")
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts, sub.ID, 2*time.Minute)

	var list []client.RunStatus
	if resp := getJSON(t, ts.URL+"/runs", &list); resp.Header.Get("Deprecation") != "true" {
		t.Error("legacy GET /runs missing Deprecation header")
	}
	if len(list) != 1 || list[0].ID != sub.ID {
		t.Errorf("legacy listing = %+v", list)
	}

	var st client.RunStatus
	getJSON(t, ts.URL+"/runs/"+sub.ID, &st)
	if st.State != StateDone {
		t.Errorf("legacy status = %q, want done", st.State)
	}

	// Legacy error paths now carry the envelope too (the body shape was
	// previously unspecified; status codes are unchanged).
	resp, err = http.Get(ts.URL + "/runs/nope")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("legacy unknown run = %d, want 404", resp.StatusCode)
	}
	if code, _ := decodeEnvelope(t, resp); code != ErrCodeNotFound {
		t.Errorf("legacy 404 envelope code = %q", code)
	}
}

// TestDispatchShutdown verifies a dispatch-enabled server still honours
// the shutdown ordering contract: in-flight sharded runs are cancelled
// and waited for, and the engine closes without a send on a closed
// channel.
func TestDispatchShutdown(t *testing.T) {
	ts, api := newDispatchServer(t, DispatchOptions{})
	id := postRun(t, ts, `{"experiments": ["txt1"], "seed": 3}`)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := api.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	st, err := testClient(ts).Run(context.Background(), id, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Errorf("run state after shutdown = %q, want %q", st.State, StateCancelled)
	}
}
