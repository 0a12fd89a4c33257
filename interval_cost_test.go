package dtmsvs

import (
	"context"
	"runtime"
	"testing"
)

// TestIntervalAllocationDoesNotGrow pins the complexity of a
// steady-state interval, not its clock: the twins' view counters are
// cumulative, and an interval must not cost more for that. A 400-user
// × 4-cell session steps 24 intervals; the bytes allocated per Step
// over the last eight non-regroup intervals may exceed those over the
// first eight by a quarter at most. When the group abstraction
// expanded one observation per cumulative view, the ratio was 2.3.
func TestIntervalAllocationDoesNotGrow(t *testing.T) {
	const intervals, regroupEvery = 24, 4
	cfg := ClusterConfig{Sim: DefaultConfig(42)}
	cfg.Sim.NumUsers = 400
	cfg.Sim.NumBS = 4
	cfg.Sim.NumIntervals = intervals
	cfg.Sim.RegroupEvery = regroupEvery
	cfg.Sim.FixedK = 4
	cfg.Sim.CompressorEpochs = 1
	cfg.Sim.Parallelism = 2
	s, err := OpenCluster(cfg, WithSink(DiscardSink{}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var steady []uint64 // bytes allocated by each non-regroup Step after the first
	var ms runtime.MemStats
	for i := 0; i < intervals; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, err := s.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		if i > 0 && (i+1)%regroupEvery != 0 { // interval 0 carries the prologue
			steady = append(steady, ms.TotalAlloc-before)
		}
	}
	mean := func(xs []uint64) float64 {
		var sum uint64
		for _, x := range xs {
			sum += x
		}
		return float64(sum) / float64(len(xs))
	}
	early, late := mean(steady[:8]), mean(steady[len(steady)-8:])
	t.Logf("allocation per Step: early %.0f B, late %.0f B, ratio %.2f", early, late, late/early)
	if late > 1.25*early {
		t.Fatalf("allocation per Step grew from %.0f B to %.0f B (×%.2f, limit ×1.25): an interval's cost depends on run length", early, late, late/early)
	}
}
