package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fit"
	"repro/internal/litmus"
	"repro/internal/optimize"
	"repro/internal/perfbench"
	"repro/internal/resultcache"
	"repro/internal/runstore"
	"repro/internal/workload"
	"repro/internal/workload/javabench"
)

// layerProbes times calls into single layers of the program from this
// process: the rungs of the ladder no workload isolates by itself.  Each
// probe names the end-to-end metric it should move in README.md.
func layerProbes(ctx context.Context, env *runEnv) (map[string]metric, error) {
	out := map[string]metric{}
	for _, probe := range []struct {
		name string
		fn   func(context.Context, *runEnv, map[string]metric) error
	}{
		{"sim", probeSim},
		{"workload+engine", probeSample},
		{"costfn", probeCalibrate},
		{"fit", probeFit},
		{"litmus", probeLitmus},
		{"optimize", probeOptimize},
		{"resultcache", probeResultCache},
		{"runstore", probeRunstore},
	} {
		t0 := time.Now()
		if err := probe.fn(ctx, env, out); err != nil {
			return nil, fmt.Errorf("%s probe: %w", probe.name, err)
		}
		fmt.Printf("probe %-12s %6.2fs\n", probe.name, time.Since(t0).Seconds())
	}
	return out, nil
}

// probeSim runs internal/perfbench's simulator bodies at fixed iteration
// counts: cycle-loop throughput, Reset cost, and allocations per sample
// (armv8 only: a sample takes about a second).
func probeSim(_ context.Context, _ *runEnv, out map[string]metric) error {
	testing.Init()
	iters := map[string]string{"SimCycles": "4x", "SimReset": "20000x", "SimSample": "3x"}
	for _, b := range perfbench.Benchmarks(true) {
		kind, prof, _ := strings.Cut(b.Name, "/")
		if kind == "SimSample" && prof != "armv8" {
			continue
		}
		if err := flag.Set("test.benchtime", iters[kind]); err != nil {
			return err
		}
		r := testing.Benchmark(b.Fn)
		if r.N == 0 {
			return fmt.Errorf("%s failed", b.Name)
		}
		switch kind {
		case "SimCycles":
			out["sim."+prof+".cycles_per_s"] = metric{float64(b.Cycles) * float64(r.N) / r.T.Seconds(), "1/s"}
		case "SimReset":
			out["sim."+prof+".reset_us"] = metric{float64(r.T.Nanoseconds()) / float64(r.N) / 1e3, "us"}
		case "SimSample":
			out["sim.allocs_per_run"] = metric{float64(r.AllocsPerOp()), "count"}
		}
	}
	return nil
}

// probeSample times single samples of Spark, the paper's running example,
// through RunWith with a MachineCache, as the experiment drivers issue
// them, then one engine measurement of the same samples over the
// two-worker pool.
func probeSample(ctx context.Context, env *runEnv, out map[string]metric) error {
	b := javabench.Spark()
	e := workload.DefaultEnv(arch.ARMv8())
	mc := workload.NewMachineCache()
	const n = 4
	var xs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := workload.RunWith(mc, b, e, workload.SampleSeed(env.seed, i)); err != nil {
			return err
		}
		xs = append(xs, ms(time.Since(t0)))
	}
	sample := median(xs[1:]) // the first sample also builds the machine
	out["workload.sample_ms"] = metric{sample, "ms"}

	eng := engine.New(engine.Options{Workers: 2})
	defer eng.Close()
	t0 := time.Now()
	if _, err := eng.Measure(ctx, b, e, n, env.seed); err != nil {
		return err
	}
	m := ms(time.Since(t0))
	out["engine.measure_ms"] = metric{m, "ms"}
	out["engine.pool_efficiency"] = metric{n * sample / (float64(eng.Workers()) * m), "ratio"}
	return nil
}

// probeCalibrate times the Figure 4 cost-function calibration.
func probeCalibrate(_ context.Context, env *runEnv, out map[string]metric) error {
	var xs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := core.Calibrate(arch.ARMv8(), []int64{1, 8, 64, 512}, env.seed+int64(i)); err != nil {
			return err
		}
		xs = append(xs, ms(time.Since(t0)))
	}
	out["costfn.calibrate_ms"] = metric{median(xs), "ms"}
	return nil
}

// probeFit times the sensitivity fit on a five-point scan.
func probeFit(_ context.Context, _ *runEnv, out map[string]metric) error {
	var pts []fit.Point
	for _, a := range []float64{0, 0.05, 0.1, 0.2, 0.4} {
		pts = append(pts, fit.Point{A: a, P: fit.Model(0.3, a) * (1 + 0.01*a)})
	}
	const n = 500
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := fit.FitSensitivity(pts); err != nil {
			return err
		}
	}
	out["fit.fit_us"] = metric{float64(time.Since(t0).Nanoseconds()) / n / 1e3, "us"}
	return nil
}

// probeLitmus samples the armv8 catalogue at a reduced trial count.
func probeLitmus(_ context.Context, env *runEnv, out map[string]metric) error {
	r := &litmus.Runner{Prof: arch.ARMv8(), Trials: 40, Seed: env.seed}
	suite := litmus.Suite("armv8")
	t0 := time.Now()
	for _, t := range suite {
		if _, err := r.Run(t); err != nil {
			return err
		}
	}
	out["litmus.sampled_tests_per_s"] = metric{float64(len(suite)) / time.Since(t0).Seconds(), "1/s"}
	return nil
}

// probeOptimize runs the smoke optimizer spec's cells in process and
// times them by kind.
func probeOptimize(_ context.Context, env *runEnv, out map[string]metric) error {
	sp := optimizeSpec(smokeOptimize(env.variant))
	gates, err := sp.GateCells()
	if err != nil {
		return err
	}
	times := map[string][]float64{}
	results := map[string]optimize.CellResult{}
	run := func(cells []optimize.Cell) error {
		for _, c := range cells {
			t0 := time.Now()
			res, err := optimize.RunCell(c)
			if err != nil {
				return err
			}
			times[c.Kind] = append(times[c.Kind], ms(time.Since(t0)))
			results[c.Name()] = res
		}
		return nil
	}
	if err := run(gates); err != nil {
		return err
	}
	sound, err := optimize.SoundNames(sp, results)
	if err != nil {
		return err
	}
	score, err := sp.ScoreCells(sound)
	if err != nil {
		return err
	}
	if err := run(score); err != nil {
		return err
	}
	for _, k := range []string{"gate", "measure", "fit"} {
		out["optimize."+k+"_ms"] = metric{median(times[k]), "ms"}
	}
	return nil
}

// probeResultCache times Acquire+Fulfill of a new key (a fill) and
// Acquire of a present key (a memory hit).
func probeResultCache(_ context.Context, _ *runEnv, out map[string]metric) error {
	c := resultcache.New(resultcache.Options{MaxEntries: 4096})
	data := []byte(strings.Repeat("x", 4096))
	const n = 2000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s|probe=%d", engine.EngineVersion, i)
	}
	t0 := time.Now()
	for _, k := range keys {
		if _, _, st := c.Acquire(k, nil); st != resultcache.Leader {
			return fmt.Errorf("fresh key %s not led", k)
		}
		c.Fulfill(k, data)
	}
	fill := time.Since(t0)
	t0 = time.Now()
	for _, k := range keys {
		if _, _, st := c.Acquire(k, nil); st != resultcache.Hit {
			return fmt.Errorf("filled key %s missed", k)
		}
	}
	hit := time.Since(t0)
	out["resultcache.fill_us"] = metric{float64(fill.Nanoseconds()) / n / 1e3, "us"}
	out["resultcache.hit_us"] = metric{float64(hit.Nanoseconds()) / n / 1e3, "us"}
	return nil
}

// storeResult is the checkpoint payload of the storage rung: the size of
// a short fig4 result.
var storeResult = json.RawMessage(`{"experiment":"probe","status":"ok","output":"` + strings.Repeat("0123456789abcdef", 128) + `"}`)

// probeRunstore measures both run-store backends the same way on the same
// filesystem: Checkpoint fsync latency, Load replay of 1k and 10k
// finished runs, and segment compaction.
func probeRunstore(_ context.Context, env *runEnv, out map[string]metric) error {
	for _, kind := range []string{runstore.KindJSONL, runstore.KindSegment} {
		dir := filepath.Join(env.work, "ckpt-"+kind)
		st, err := runstore.OpenBackend(kind, dir)
		if err != nil {
			return err
		}
		if err := st.Begin("run-1", json.RawMessage(`{}`), time.Now()); err != nil {
			return err
		}
		var xs []float64
		for i := 0; i < 30; i++ {
			t0 := time.Now()
			if err := st.Checkpoint("run-1", fmt.Sprintf("exp-%d", i), storeResult); err != nil {
				return err
			}
			xs = append(xs, ms(time.Since(t0)))
		}
		if err := st.End("run-1", "done", ""); err != nil {
			return err
		}
		st.Close()
		out["runstore."+kind+".checkpoint_ms"] = metric{median(xs), "ms"}

		for _, n := range []int{1000, 10000} {
			src, err := filledStore(env, kind, n)
			if err != nil {
				return err
			}
			// Replay a private copy: opening a segment store starts a
			// new active segment, and compaction rewrites it.
			cp := filepath.Join(env.work, fmt.Sprintf("load-%s-%d", kind, n))
			if err := copyDir(src, cp); err != nil {
				return err
			}
			t0 := time.Now()
			st, err := runstore.OpenBackend(kind, cp)
			if err != nil {
				return err
			}
			runs, err := st.Load()
			if err != nil {
				return err
			}
			out[fmt.Sprintf("runstore.%s.load_%dk_s", kind, n/1000)] = metric{time.Since(t0).Seconds(), "s"}
			if len(runs) != n {
				return fmt.Errorf("%s store replayed %d runs, want %d", kind, len(runs), n)
			}
			if seg, ok := st.(*runstore.SegmentStore); ok && n == 10000 {
				t0 = time.Now()
				if err := seg.Compact(); err != nil {
					return err
				}
				out["runstore.segment.compact_s"] = metric{time.Since(t0).Seconds(), "s"}
			}
			st.Close()
			os.RemoveAll(cp)
		}
	}
	return nil
}

// filledStore returns a store of n finished runs (Begin, one Checkpoint,
// End each), built once per checkout under the work root and reused:
// building 10k runs costs 30k fsyncs.
func filledStore(env *runEnv, kind string, n int) (string, error) {
	dir := filepath.Join(filepath.Dir(env.work), "stores", fmt.Sprintf("%s-%d", kind, n))
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	tmp := dir + ".building"
	os.RemoveAll(tmp)
	st, err := runstore.OpenBackend(kind, tmp)
	if err != nil {
		return "", err
	}
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("run-%d", i)
		if err := st.Begin(id, json.RawMessage(`{"experiments":["probe"]}`), at); err != nil {
			return "", err
		}
		if err := st.Checkpoint(id, "probe", storeResult); err != nil {
			return "", err
		}
		if err := st.End(id, "done", ""); err != nil {
			return "", err
		}
	}
	if err := st.Close(); err != nil {
		return "", err
	}
	return dir, os.Rename(tmp, dir)
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	os.RemoveAll(dst)
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		o, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(o, in); err != nil {
			o.Close()
			return err
		}
		return o.Close()
	})
}
