// Package repro_test hosts the benchmark harness: one testing.B benchmark
// per table and figure of the paper, each regenerating the corresponding
// rows through the experiment drivers (reduced sweeps; run
// `go run ./cmd/wmmbench all` for the full-resolution evaluation recorded
// in EXPERIMENTS.md), plus microbenchmarks of the simulator substrate
// itself.
package repro_test

import (
	"io"
	"testing"

	"repro/internal/perfbench"
	"repro/wmm"
)

// benchOpts returns the reduced-sweep options used by the harness (short
// sweep, two samples per measurement) so a full `go test -bench=.` run of
// all nineteen experiments completes within go test's default 10-minute
// package budget on a laptop-class core; pass -timeout 0 for slower hosts.
// The full-resolution evaluation is `go run ./cmd/wmmbench all`.
func benchOpts() wmm.ExperimentOptions {
	return wmm.ExperimentOptions{Short: true, Samples: 2, Out: io.Discard, Seed: 1}
}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := wmm.RunExperiment(name, benchOpts()); err != nil {
			b.Fatalf("%s: %v", name, err)
		}
	}
}

// BenchmarkFig1 regenerates Figure 1 (example sensitivity fit).
func BenchmarkFig1(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig4 regenerates Figure 4 (cost-function calibration curves).
func BenchmarkFig4(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5 regenerates Figure 5 (JVM benchmark sensitivities, both
// architectures).
func BenchmarkFig5(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6 regenerates Figure 6 (spark per-elemental sensitivities).
func BenchmarkFig6(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7 regenerates Figure 7 (kernel macro impact ranking).
func BenchmarkFig7(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8 regenerates Figure 8 (kernel benchmark sensitivity
// ranking).
func BenchmarkFig8(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Figure 9 (read_barrier_depends
// sensitivities).
func BenchmarkFig9(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Figure 10 (rbd strategy comparison).
func BenchmarkFig10(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkTxt1 regenerates the §4.2 nop-padding measurement.
func BenchmarkTxt1(b *testing.B) { runExperiment(b, "txt1") }

// BenchmarkTxt2 regenerates the §4.2.1 StoreStore swap measurement.
func BenchmarkTxt2(b *testing.B) { runExperiment(b, "txt2") }

// BenchmarkTxt3 regenerates the §4.2.1/§4.4 barrier microbenchmarks.
func BenchmarkTxt3(b *testing.B) { runExperiment(b, "txt3") }

// BenchmarkTxt4 regenerates the §4.2.1 JDK9-vs-JDK8 comparison.
func BenchmarkTxt4(b *testing.B) { runExperiment(b, "txt4") }

// BenchmarkTxt5 regenerates the §4.2.1 lock-patch measurement.
func BenchmarkTxt5(b *testing.B) { runExperiment(b, "txt5") }

// BenchmarkTxt6 regenerates the §4.3 kernel nop-padding measurement.
func BenchmarkTxt6(b *testing.B) { runExperiment(b, "txt6") }

// BenchmarkTxt7 regenerates the §4.3.1 strategy-cost table.
func BenchmarkTxt7(b *testing.B) { runExperiment(b, "txt7") }

// BenchmarkLitmusSuite runs the weak-memory conformance campaign.
func BenchmarkLitmusSuite(b *testing.B) { runExperiment(b, "litmus") }

// ---------------------------------------------------------------------------
// Substrate microbenchmarks: raw simulator throughput, independent of the
// paper's experiments.

// BenchmarkMachineALU measures simulator throughput on a pure-ALU loop
// (reported as simulated instructions retired per wall-clock run).
func BenchmarkMachineALU(b *testing.B) {
	prog := func() wmm.Program {
		bb := wmm.NewBuilder()
		bb.MovImm(0, 1_000)
		bb.Label("loop")
		bb.AddImm(1, 1, 3)
		bb.Eor(2, 1, 1)
		bb.SubsImm(0, 0, 1)
		bb.Bne("loop")
		bb.Halt()
		return bb.MustBuild()
	}()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := wmm.NewMachine(wmm.ARMv8(), wmm.MachineConfig{Cores: 1, MemWords: 1 << 10, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.LoadProgram(0, prog); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(100_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachineContended measures simulator throughput under four cores
// hammering a contended counter with exclusives.
func BenchmarkMachineContended(b *testing.B) {
	prog := func() wmm.Program {
		bb := wmm.NewBuilder()
		bb.MovImm(0, 200)
		bb.Label("outer")
		bb.Label("retry")
		bb.LoadEx(2, 1, 0)
		bb.AddImm(3, 2, 1)
		bb.StoreEx(4, 3, 1, 0)
		bb.CmpImm(4, 0)
		bb.Bne("retry")
		bb.SubsImm(0, 0, 1)
		bb.Bne("outer")
		bb.Halt()
		return bb.MustBuild()
	}()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := wmm.NewMachine(wmm.POWER7(), wmm.MachineConfig{Cores: 4, MemWords: 1 << 10, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		for c := 0; c < 4; c++ {
			if err := m.LoadProgram(c, prog); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := m.Run(10_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSensitivityFit measures the Levenberg-Marquardt fit itself.
func BenchmarkSensitivityFit(b *testing.B) {
	var pts []wmm.FitPoint
	for a := 1.0; a <= 16384; a *= 2 {
		pts = append(pts, wmm.FitPoint{A: a, P: wmm.SensitivityModel(0.00277, a)})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wmm.FitSensitivity(pts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleWorkload measures one end-to-end benchmark run (spark on
// ARMv8) — the unit of work every experiment is built from.
func BenchmarkSingleWorkload(b *testing.B) {
	bench, err := wmm.JVMBenchmark("spark")
	if err != nil {
		b.Fatal(err)
	}
	env := wmm.DefaultEnv(wmm.ARMv8())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wmm.MeasureBenchmark(bench, env, 1, int64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblations runs the design-choice ablations (store-buffer depth,
// multi-copy atomicity, speculation, fit-model form).
func BenchmarkAblations(b *testing.B) { runExperiment(b, "ablations") }

// BenchmarkCounters runs the invocation-counter survey (the §3
// methodological comparison).
func BenchmarkCounters(b *testing.B) { runExperiment(b, "counters") }

// BenchmarkJITExtension runs the §6 future-work experiment: sensitivity to
// a compiler-optimisation code path.
func BenchmarkJITExtension(b *testing.B) { runExperiment(b, "ext-jit") }

// BenchmarkC11Extension prices memory_order strength on lock-free
// structures (§6 future work).
func BenchmarkC11Extension(b *testing.B) { runExperiment(b, "ext-c11") }

// BenchmarkSim* are the simulator hot-path microbenchmarks of
// internal/perfbench, shared with the repository benchmark's sim rung:
// raw cycle-loop throughput, the cost of Machine.Reset, and a full
// workload sample through the machine cache.  The cycle-loop and reset
// bodies must stay at 0 allocs/op; perfbench's TestAllocs gates that.
func BenchmarkSim(b *testing.B) {
	for _, pb := range perfbench.Benchmarks(testing.Short()) {
		b.Run(pb.Name, pb.Fn)
	}
}
