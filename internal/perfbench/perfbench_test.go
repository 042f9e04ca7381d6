package perfbench

import (
	"strings"
	"testing"
)

// allocCeiling is the most allocations one step of a SimSample body may
// make.  A sample's count is not a design invariant like the cycle loop's
// zero, so it is not gated as exact: the ceiling is pinned at the maximum
// seen over 10 runs of this test, 204 on both profiles on a 2-CPU amd64
// host with go1.24.  The cycle-loop and Reset bodies must allocate
// nothing at all.
var allocCeiling = map[string]float64{
	"SimSample/armv8":  204,
	"SimSample/power7": 204,
}

// TestAllocs runs every body's step through testing.AllocsPerRun, whose
// first call is an unmeasured warm run.  A sample takes over a second
// and the race detector slows the simulator about eightfold, so race
// builds gate only the zero-allocation bodies.
func TestAllocs(t *testing.T) {
	for _, b := range Benchmarks(true) {
		ceiling, sample := allocCeiling[b.Name]
		runs := 3
		switch {
		case sample && raceEnabled:
			continue
		case sample:
			runs = 2 // a sample takes over a second
		case strings.HasPrefix(b.Name, "SimReset/"):
			runs = 100
		}
		t.Run(b.Name, func(t *testing.T) {
			step, err := b.setup()
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			got := testing.AllocsPerRun(runs, func() {
				if err == nil {
					err = step(i)
				}
				i++
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %v allocs per step", b.Name, got)
			if got > ceiling {
				t.Errorf("%s: %v allocations per step, want at most %v", b.Name, got, ceiling)
			}
		})
	}
}
