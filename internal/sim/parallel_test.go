package sim

import (
	"reflect"
	"testing"
)

// parallelTestConfig is small enough to run the full pipeline many
// times in a unit test while exercising churn, regrouping and every
// parallel stage.
func parallelTestConfig(seed int64, workers int) Config {
	return Config{
		Seed:             seed,
		NumUsers:         24,
		NumBS:            2,
		NumIntervals:     4,
		TicksPerInterval: 6,
		WarmupIntervals:  1,
		RegroupEvery:     2,
		CompressorEpochs: 2,
		AgentEpisodes:    12,
		ChurnPerInterval: 0.1,
		PrefetchDepth:    -1,
		Parallelism:      workers,
	}
}

// TestRunDeterministicAcrossParallelism is the engine's core
// reproducibility guarantee: for the same seed, a run produces a
// bit-identical Trace whether the pool runs 1, 4 or 8 workers. The
// evicting case shrinks the edge cache to a few videos, so the order
// the groups' feeds are served in decides which videos stay cached,
// and so the run's hit rate: streaming groups concurrently must still
// serve their feeds in group order.
func TestRunDeterministicAcrossParallelism(t *testing.T) {
	cases := []struct {
		name  string
		cache int64
	}{
		{"default cache", 0},
		{"evicting cache", 64 << 20},
	}
	for _, c := range cases {
		for _, seed := range []int64{1, 42, 1337} {
			var base *Trace
			for _, workers := range []int{1, 4, 8} {
				cfg := parallelTestConfig(seed, workers)
				cfg.CacheBytes = c.cache
				s, err := New(cfg)
				if err != nil {
					t.Fatalf("%s seed %d workers %d: %v", c.name, seed, workers, err)
				}
				trace := runAll(t, s)
				if c.cache > 0 && s.server.Cache().Evictions() == 0 {
					t.Fatalf("%s seed %d workers %d: nothing evicted", c.name, seed, workers)
				}
				if base == nil {
					base = trace
					continue
				}
				if len(trace.Records) != len(base.Records) {
					t.Fatalf("%s seed %d workers %d: %d records, want %d",
						c.name, seed, workers, len(trace.Records), len(base.Records))
				}
				for i := range base.Records {
					if trace.Records[i] != base.Records[i] {
						t.Fatalf("%s seed %d workers %d: record %d diverged:\n got %+v\nwant %+v",
							c.name, seed, workers, i, trace.Records[i], base.Records[i])
					}
				}
				if trace.K != base.K || trace.Silhouette != base.Silhouette ||
					trace.CacheHitRate != base.CacheHitRate || trace.ChurnedUsers != base.ChurnedUsers {
					t.Fatalf("%s seed %d workers %d: run stats diverged: K %d/%d sil %v/%v cache %v/%v churned %d/%d",
						c.name, seed, workers, trace.K, base.K, trace.Silhouette, base.Silhouette,
						trace.CacheHitRate, base.CacheHitRate, trace.ChurnedUsers, base.ChurnedUsers)
				}
				if !reflect.DeepEqual(trace.StabilityByRegroup, base.StabilityByRegroup) {
					t.Fatalf("%s seed %d workers %d: stability diverged: %v vs %v",
						c.name, seed, workers, trace.StabilityByRegroup, base.StabilityByRegroup)
				}
				if !reflect.DeepEqual(trace.SwipeByGroup, base.SwipeByGroup) {
					t.Fatalf("%s seed %d workers %d: swipe distributions diverged", c.name, seed, workers)
				}
			}
		}
	}
}

// TestRunDeterministicRepeat guards plain same-seed reproducibility
// (two runs at the same parallelism).
func TestRunDeterministicRepeat(t *testing.T) {
	run := func() *Trace {
		return runFast(t, parallelTestConfig(7, 0)) // 0 = NumCPU
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Records, b.Records) {
		t.Fatal("same-seed runs diverged")
	}
}

func TestParallelismValidation(t *testing.T) {
	cfg := parallelTestConfig(1, -1)
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative parallelism must be rejected")
	}
}
