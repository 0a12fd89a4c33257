package dtmsvs

import (
	"reflect"
	"testing"
)

// clusterTestConfig is a small sharded scenario exercising churn,
// regrouping, warm-up handover and every parallel stage.
func clusterTestConfig(seed int64, workers, shards int) ClusterConfig {
	return ClusterConfig{
		Sim: Config{
			Seed:             seed,
			NumUsers:         32,
			NumBS:            4,
			NumIntervals:     4,
			TicksPerInterval: 6,
			WarmupIntervals:  1,
			RegroupEvery:     2,
			CompressorEpochs: 2,
			AgentEpisodes:    10,
			ChurnPerInterval: 0.1,
			PrefetchDepth:    -1,
			Parallelism:      workers,
		},
		Shards: shards,
	}
}

// TestClusterDeterministic is the cluster engine's acceptance
// guarantee: a cluster session produces a bit-identical trace for
// Parallelism ∈ {1,4,8} and shard counts {1, NumBS}, and the
// handover pass conserves users — the engine verifies after every
// interval boundary that no twin is lost or duplicated and fails the
// run otherwise, so a successful run certifies conservation.
func TestClusterDeterministic(t *testing.T) {
	for _, seed := range []int64{7, 1234} {
		var base *ClusterTrace
		for _, workers := range []int{1, 4, 8} {
			for _, shards := range []int{1, 4} { // 4 == NumBS
				trace := mustClusterTrace(t, clusterTestConfig(seed, workers, shards))
				if base == nil {
					base = trace
					if len(base.Records) == 0 {
						t.Fatalf("seed %d: empty cluster trace", seed)
					}
					continue
				}
				if !reflect.DeepEqual(trace.Records, base.Records) {
					t.Fatalf("seed %d workers %d shards %d: records diverged", seed, workers, shards)
				}
				if !reflect.DeepEqual(trace.Cells, base.Cells) {
					t.Fatalf("seed %d workers %d shards %d: cell stats diverged", seed, workers, shards)
				}
				if trace.Handovers != base.Handovers || trace.ChurnedUsers != base.ChurnedUsers {
					t.Fatalf("seed %d workers %d shards %d: handovers %d/%d churned %d/%d",
						seed, workers, shards, trace.Handovers, base.Handovers,
						trace.ChurnedUsers, base.ChurnedUsers)
				}
			}
		}
		// Conservation: every twin accounted for in exactly one cell.
		var users int
		for _, c := range base.Cells {
			users += c.Users
		}
		if users != 32 {
			t.Fatalf("seed %d: %d twins across cells, want 32", seed, users)
		}
		if base.Handovers == 0 {
			t.Fatalf("seed %d: no handovers; migration untested", seed)
		}
	}
}
