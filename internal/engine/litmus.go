package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/arch"
	"repro/internal/litmus"
	"repro/internal/litmus/gen"
)

// Litmus campaigns are the second job family the sharded backend
// carries: a generated batch of litmus tests (internal/litmus/gen) is
// cut into contiguous index ranges and fanned out through the same
// queue, leases and workers as experiment jobs.  Nothing but the shard
// descriptor crosses the wire — generation is a pure function of
// (seed, count, max_threads), so every party regenerates the identical
// batch and a shard executes byte-identically wherever it lands.

// LitmusSpec is the body of POST /api/v1/litmus: one generated litmus
// campaign against one simulated machine.
type LitmusSpec struct {
	// Arch selects the machine: "armv8" or "power7".
	Arch string `json:"arch"`
	// GenSeed drives the generator (0 = 1).
	GenSeed int64 `json:"gen_seed,omitempty"`
	// Count is the number of distinct generated tests.
	Count int `json:"count"`
	// MaxThreads caps the cycle length (2..4; 0 = 4).
	MaxThreads int `json:"max_threads,omitempty"`
	// Trials is the randomized trial count per test (0 = 400).
	Trials int `json:"trials,omitempty"`
	// Seed is the runner's base seed (0 = 1).
	Seed int64 `json:"seed,omitempty"`
	// ShardSize is the number of tests per dispatched shard (0 = 50).
	ShardSize int `json:"shard_size,omitempty"`
	// Parallel shards in flight at once (0 = server default).
	Parallel int `json:"parallel,omitempty"`
	// TimeoutMs bounds the whole campaign; 0 = no deadline.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Tenant names the fair-share queue and quota bucket the campaign is
	// accounted to (the X-WMM-Tenant header wins; empty = "default").
	Tenant string `json:"tenant,omitempty"`
}

// litmusKind is the async-job kind of litmus campaigns.
var litmusKind = &jobKind{name: "litmus", noun: "litmus campaign", unit: "shards", plan: planLitmus}

// planLitmus validates a campaign and cuts it into shards.
func planLitmus(r *http.Request, defaultParallel int) (jobPlan, error) {
	var spec LitmusSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		return jobPlan{}, err
	}
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return jobPlan{}, err
	}
	if spec.Parallel <= 0 {
		spec.Parallel = defaultParallel
	}
	lw := &litmusWork{spec: spec, shards: spec.shards()}
	return jobPlan{work: lw, tenant: &lw.spec.Tenant, timeoutMs: spec.TimeoutMs, size: len(lw.shards)}, nil
}

// litmusWork is a campaign's kind-specific state.
type litmusWork struct {
	spec      LitmusSpec
	shards    []LitmusShard
	completed []*Result // shard results, completion order, while running
	final     []*Result // shard order, once the campaign ends
}

// LitmusStatus is the snapshot served by GET /api/v1/litmus/{id}.  The
// id / kind / state / tenant / started_at / finished_at header is the
// envelope shared by every v1 job resource.
type LitmusStatus struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	State  string `json:"state"`
	Tenant string `json:"tenant,omitempty"`
	// FinishedAt is set once the campaign leaves the running state.
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	Spec       LitmusSpec `json:"spec"`
	Total      int        `json:"total"`     // shards
	Completed  int        `json:"completed"` // shards finished
	// Tests and Trials aggregate the completed shards' execution
	// accounting (tests run, randomized trials performed).
	Tests     int       `json:"tests"`
	Trials    int       `json:"trials"`
	Error     string    `json:"error,omitempty"`
	StartedAt time.Time `json:"started_at"`
	WallMs    int64     `json:"wall_ms"`
	Results   []*Result `json:"results,omitempty"`
}

func (st LitmusStatus) jobID() string { return st.ID }

// drive shards the campaign across the dispatcher.
func (lw *litmusWork) drive(ctx context.Context, s *Server, j *asyncJob) ([]*Result, func(), error) {
	jobs := make([]Job, len(lw.shards))
	for i, sh := range lw.shards {
		jobs[i] = Job{Name: sh.name(), Payload: sh}
	}
	results, err := s.disp.Run(ctx, j.id, j.tenant, jobs, lw.spec.Parallel, j, j.admitted)
	return results, func() { lw.final = results }, err
}

func (lw *litmusWork) started(string) {}

func (lw *litmusWork) record(res *Result) { lw.completed = append(lw.completed, res) }

func (lw *litmusWork) status(j *asyncJob, withResults, _ bool) jobStatus {
	st := LitmusStatus{
		ID:        j.id,
		Kind:      litmusKind.name,
		State:     j.state,
		Tenant:    j.tenant,
		Spec:      lw.spec,
		Total:     len(lw.shards),
		Completed: len(lw.completed),
		Error:     j.err,
		StartedAt: j.started,
	}
	st.FinishedAt, st.WallMs = jobTimes(j.started, j.finished)
	counted := lw.completed
	if lw.final != nil {
		counted = lw.final
	}
	for _, res := range counted {
		if res != nil {
			st.Tests += res.Measurements
			st.Trials += res.Samples
		}
	}
	if withResults || j.state != StateRunning {
		if lw.final != nil {
			st.Results = lw.final
		} else {
			st.Results = append([]*Result{}, lw.completed...)
		}
	}
	return st
}

func (lw *litmusWork) canonical() ([]byte, error) { return CanonicalRunJSON(lw.final) }

// maxLitmusCount bounds a campaign; the recipe space saturates long
// before this, and gen.Generate fails loudly when a Count is impossible.
const maxLitmusCount = 20_000

// withDefaults fills the zero values in.
func (sp LitmusSpec) withDefaults() LitmusSpec {
	if sp.GenSeed == 0 {
		sp.GenSeed = 1
	}
	if sp.MaxThreads == 0 {
		sp.MaxThreads = 4
	}
	if sp.Trials == 0 {
		sp.Trials = 400
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.ShardSize == 0 {
		sp.ShardSize = 50
	}
	return sp
}

// validate rejects malformed specs, including configs the generator
// cannot satisfy (a dry generation is cheap: recipes only, no programs).
func (sp LitmusSpec) validate() error {
	if _, err := litmusProfile(sp.Arch); err != nil {
		return err
	}
	if sp.Count <= 0 || sp.Count > maxLitmusCount {
		return fmt.Errorf("count must be in [1,%d], got %d", maxLitmusCount, sp.Count)
	}
	if sp.MaxThreads < 2 || sp.MaxThreads > 4 {
		return fmt.Errorf("max_threads must be in [2,4], got %d", sp.MaxThreads)
	}
	if sp.Trials < 0 || sp.Seed < 0 || sp.GenSeed < 0 || sp.ShardSize < 0 || sp.Parallel < 0 || sp.TimeoutMs < 0 {
		return fmt.Errorf("trials, seeds, shard_size, parallel and timeout_ms must be >= 0")
	}
	if _, err := gen.Generate(gen.Config{Seed: sp.GenSeed, Count: sp.Count, MaxThreads: sp.MaxThreads}); err != nil {
		return err
	}
	return nil
}

// shards cuts the campaign into contiguous index ranges.
func (sp LitmusSpec) shards() []LitmusShard {
	var out []LitmusShard
	for lo := 0; lo < sp.Count; lo += sp.ShardSize {
		hi := lo + sp.ShardSize
		if hi > sp.Count {
			hi = sp.Count
		}
		out = append(out, LitmusShard{
			Arch:       sp.Arch,
			GenSeed:    sp.GenSeed,
			Count:      sp.Count,
			MaxThreads: sp.MaxThreads,
			Trials:     sp.Trials,
			Seed:       sp.Seed,
			Lo:         lo,
			Hi:         hi,
		})
	}
	return out
}

// LitmusShard is one dispatched unit of a campaign: tests [Lo,Hi) of
// the batch that (GenSeed, Count, MaxThreads) deterministically
// generates.  The executing process regenerates the batch and runs its
// slice; shipping indices instead of programs is what keeps the wire
// format trivial and the execution location irrelevant.
type LitmusShard struct {
	Arch       string `json:"arch"`
	GenSeed    int64  `json:"gen_seed,omitempty"`
	Count      int    `json:"count"`
	MaxThreads int    `json:"max_threads,omitempty"`
	Trials     int    `json:"trials,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	Lo         int    `json:"lo"`
	Hi         int    `json:"hi"`
}

// name is the shard's job identity on the queue and in results.
func (sh LitmusShard) name() string { return fmt.Sprintf("shard-%05d-%05d", sh.Lo, sh.Hi) }

// litmusProfile resolves a machine name.
func litmusProfile(name string) (*arch.Profile, error) {
	switch name {
	case "armv8":
		return arch.ARMv8(), nil
	case "power7":
		return arch.POWER7(), nil
	default:
		return nil, fmt.Errorf("unknown arch %q (want armv8 or power7)", name)
	}
}

// litmusTestOutcome is one test's outcome inside a shard result, the
// row format of the shard's canonical Output JSON.
type litmusTestOutcome struct {
	Name    string `json:"name"`
	Trials  int    `json:"trials"`
	Hits    int    `json:"hits"`
	Relaxed int    `json:"relaxed"`
}

// RunLitmusShard regenerates the shard's batch and runs its slice,
// returning the outcome counts as a Result whose Output is a canonical
// JSON array (one row per test, generation order).  Like experiment
// jobs, the Result is byte-identical (wall time aside) in whichever
// process executes it.  The error return is reserved for protocol-level
// mismatches (unknown arch, inconsistent indices); execution failures
// are contained in the Result.
func RunLitmusShard(ctx context.Context, sh LitmusShard) (*Result, error) {
	prof, err := litmusProfile(sh.Arch)
	if err != nil {
		return nil, err
	}
	if sh.Lo < 0 || sh.Hi > sh.Count || sh.Lo >= sh.Hi {
		return nil, fmt.Errorf("litmus shard range [%d,%d) outside batch of %d", sh.Lo, sh.Hi, sh.Count)
	}
	recipes, err := gen.Generate(gen.Config{Seed: sh.GenSeed, Count: sh.Count, MaxThreads: sh.MaxThreads})
	if err != nil {
		return nil, err
	}

	r := &litmus.Runner{Prof: prof, Trials: sh.Trials, Seed: sh.Seed}
	res := &Result{
		Experiment: sh.name(),
		Desc:       fmt.Sprintf("generated litmus tests [%d,%d) of %d on %s", sh.Lo, sh.Hi, sh.Count, prof.Name),
	}
	finish := func(status, errMsg string, outs []litmusTestOutcome) *Result {
		raw, merr := json.MarshalIndent(outs, "", "  ")
		if merr != nil {
			status, errMsg = StatusFailed, merr.Error()
		} else {
			res.Output = string(raw)
		}
		res.Status = status
		res.Err = errMsg
		return res
	}

	outs := make([]litmusTestOutcome, 0, sh.Hi-sh.Lo)
	for _, rc := range recipes[sh.Lo:sh.Hi] {
		if err := ctx.Err(); err != nil {
			return finish(StatusCancelled, err.Error(), outs), nil
		}
		tst := rc.Build()
		out, err := r.Run(tst)
		if err != nil {
			status := StatusFailed
			if len(outs) > 0 {
				status = StatusIncomplete
			}
			return finish(status, fmt.Sprintf("%s: %v", tst.Name, err), outs), nil
		}
		outs = append(outs, litmusTestOutcome{Name: tst.Name, Trials: out.Trials, Hits: out.Hits, Relaxed: out.Relaxed})
		res.Measurements++
		res.Samples += out.Trials
	}
	return finish(StatusOK, "", outs), nil
}
