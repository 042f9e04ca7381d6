// Package perfbench holds the simulator performance benchmark bodies
// shared by the `go test -bench BenchmarkSim` harness (bench_test.go), the
// repository benchmark's sim rung (wmmladder) and this package's
// allocation test.  Each body is one setup plus a per-iteration step: Fn
// times the step and TestAllocs counts its allocations, so the code the
// tier-1 test gates is the code the ladder measures.
package perfbench

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/workload/javabench"
)

// Bench is one named benchmark body.
type Bench struct {
	Name string
	Fn   func(b *testing.B)
	// Cycles is the simulated cycle count per iteration for bodies that
	// drive the raw cycle loop; zero for sample-level bodies.
	Cycles int64

	setup setupFunc
}

// setupFunc builds a body's state and returns its per-iteration step; the
// step's argument is the iteration index.
type setupFunc func() (step func(i int) error, err error)

// timed is the b.N loop around a body's step.  warm runs one untimed step
// first, so reusable buffers (store buffers, propagation heaps, result
// storage) reach their steady capacity before the timer starts.
func timed(setup setupFunc, warm bool, cycles int64) func(b *testing.B) {
	return func(b *testing.B) {
		step, err := setup()
		if err != nil {
			b.Fatal(err)
		}
		if warm {
			if err := step(0); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := step(i); err != nil {
				b.Fatal(err)
			}
		}
		if cycles > 0 {
			b.StopTimer()
			b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
		}
	}
}

// steadyProg builds the per-core program used by the cycle-loop
// benchmarks: a non-halting mix of ALU work, loads, stores and fences that
// keeps every pipeline subsystem busy (no idle fast-path escape).
func steadyProg(prof *arch.Profile, core int) arch.Program {
	fence := arch.DMBIshSt
	if prof.Flavor == arch.NonMCA {
		fence = arch.LwSync
	}
	b := arch.NewBuilder()
	b.MovImm(0, 0)
	b.Label("loop")
	b.Work(1)
	b.Load(2, 1, int64(core*64))
	b.AddImm(2, 2, 3)
	b.Store(2, 1, int64(core*64))
	b.Fence(fence)
	b.Load(3, 1, int64(((core+1)%4)*64))
	b.Add(4, 2, 3)
	b.Mul(4, 4, 2)
	b.AddImm(0, 0, 1)
	b.B("loop")
	return b.MustBuild()
}

func newMachine(prof *arch.Profile) (*sim.Machine, error) {
	return sim.New(prof, sim.Config{Cores: 4, MemWords: 1 << 12, Seed: 1})
}

// simCycles measures raw simulation throughput: cycles simulated per
// wall-clock second on a 4-core machine, reusing one machine via Reset.
// Steady state allocates nothing per iteration.
func simCycles(prof *arch.Profile, cycles int64) setupFunc {
	return func() (func(int) error, error) {
		m, err := newMachine(prof)
		if err != nil {
			return nil, err
		}
		progs := make([]arch.Program, 4)
		for c := range progs {
			progs[c] = steadyProg(prof, c)
		}
		return func(i int) error {
			m.Reset(int64(i) + 1)
			for c, p := range progs {
				if err := m.LoadProgram(c, p); err != nil {
					return err
				}
			}
			_, err := m.Run(cycles)
			return err
		}, nil
	}
}

// simReset measures Machine.Reset alone: the fixed per-sample overhead of
// machine reuse.  Allocates nothing.
func simReset(prof *arch.Profile) setupFunc {
	return func() (func(int) error, error) {
		m, err := newMachine(prof)
		if err != nil {
			return nil, err
		}
		return func(i int) error {
			m.Reset(int64(i) + 1)
			return nil
		}, nil
	}
}

// simSample measures one full benchmark sample through the workload layer
// with a MachineCache, i.e. ns/sample as the experiment drivers see it.
func simSample(prof *arch.Profile) setupFunc {
	return func() (func(int) error, error) {
		bench := javabench.Spark()
		env := workload.DefaultEnv(prof)
		mc := workload.NewMachineCache()
		return func(i int) error {
			_, err := workload.RunWith(mc, bench, env, workload.SampleSeed(1, i))
			return err
		}, nil
	}
}

// Benchmarks returns the full suite.  short trims the per-iteration cycle
// counts so a full sweep finishes in CI time.
func Benchmarks(short bool) []Bench {
	cycles := int64(200_000)
	if short {
		cycles = 50_000
	}
	var out []Bench
	for _, prof := range []*arch.Profile{arch.ARMv8(), arch.POWER7()} {
		cyc, reset, sample := simCycles(prof, cycles), simReset(prof), simSample(prof)
		out = append(out,
			Bench{Name: "SimCycles/" + prof.Name, Fn: timed(cyc, true, cycles), Cycles: cycles, setup: cyc},
			Bench{Name: "SimReset/" + prof.Name, Fn: timed(reset, false, 0), setup: reset},
			Bench{Name: "SimSample/" + prof.Name, Fn: timed(sample, false, 0), setup: sample},
		)
	}
	return out
}
