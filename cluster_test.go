package dtmsvs

import (
	"fmt"
	"reflect"
	"testing"
)

// clusterTestConfig is a small one-cell-per-station scenario
// exercising churn, regrouping, warm-up handover and every parallel
// stage.
func clusterTestConfig(seed int64, workers int) ClusterConfig {
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
	}
}

// oneCellConfig is a one-station scenario small enough to run a
// matrix of: more users than KMax, so the DDQN trains and the K-means
// runs, a regroup, and churn when asked for.
func oneCellConfig(seed int64, cnn bool, workers int, churn float64) Config {
	c := Config{
		Seed:             seed,
		NumUsers:         24,
		NumBS:            1,
		NumIntervals:     4,
		TicksPerInterval: 6,
		WarmupIntervals:  1,
		RegroupEvery:     2,
		CompressorEpochs: 2,
		AgentEpisodes:    6,
		ChurnPerInterval: churn,
		PrefetchDepth:    -1,
		Parallelism:      workers,
	}
	c.Grouping.UseCNN = cnn
	return c
}

// requireSameRows fails unless the monolithic and the cluster rows
// agree field for field, BS aside (-1 in the monolithic engine, the
// cell id in a cluster).
func requireSameRows(t *testing.T, mono []TraceRecord, cluster []ClusterRecord) {
	t.Helper()
	if len(mono) == 0 || len(mono) != len(cluster) {
		t.Fatalf("%d monolithic rows, %d cluster rows", len(mono), len(cluster))
	}
	for i := range mono {
		if mono[i].BS != -1 || cluster[i].BS != 0 {
			t.Fatalf("row %d: bs %d and %d, want -1 and 0", i, mono[i].BS, cluster[i].BS)
		}
		if mono[i].GroupIntervalRecord != cluster[i].GroupIntervalRecord {
			t.Fatalf("row %d diverged:\n mono    %+v\n cluster %+v", i, mono[i].GroupIntervalRecord, cluster[i].GroupIntervalRecord)
		}
	}
}

// TestMonolithicIsOneCellCluster: the monolithic engine is one cell
// over every station, so on a one-station campus it is the one-cell
// cluster row for row — same catalog, same streams, same
// delivery model — with the CNN on and off, at any Parallelism, with
// and without churn.
func TestMonolithicIsOneCellCluster(t *testing.T) {
	for _, seed := range []int64{7, 42} {
		for _, cnn := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				for _, churn := range []float64{0, 0.05} {
					name := fmt.Sprintf("seed%d/cnn=%v/workers%d/churn%v", seed, cnn, workers, churn)
					t.Run(name, func(t *testing.T) {
						cfg := oneCellConfig(seed, cnn, workers, churn)
						mono := mustTrace(t, cfg)
						cluster := mustClusterTrace(t, ClusterConfig{Sim: cfg})
						requireSameRows(t, mono.Records, cluster.Records)
						if churn > 0 && (mono.ChurnedUsers == 0 || cluster.ChurnedUsers != mono.ChurnedUsers) {
							t.Fatalf("churned %d monolithic, %d cluster", mono.ChurnedUsers, cluster.ChurnedUsers)
						}
						if mono.K < 2 {
							t.Fatalf("one group: the K-means went untested")
						}
					})
				}
			}
		}
	}
}

// TestClusterPrefetchOff: a cluster built from a "no prefetch"
// configuration delivers without prefetch in every cell, as the
// monolithic engine does, although the cluster and each cell default
// the configuration in turn.
func TestClusterPrefetchOff(t *testing.T) {
	cfg := oneCellConfig(7, false, 0, 0)
	cfg.NumUsers = 60
	cfg.NumIntervals = 6
	mono := mustTrace(t, cfg)
	cluster := mustClusterTrace(t, ClusterConfig{Sim: cfg})
	if len(mono.Records) == 0 || len(mono.Records) != len(cluster.Records) {
		t.Fatalf("%d monolithic rows, %d cluster rows", len(mono.Records), len(cluster.Records))
	}
	for i, r := range mono.Records {
		if got := cluster.Records[i].ActualWasteBits; got != r.ActualWasteBits {
			t.Fatalf("interval %d group %d: cluster wastes %.0f bits, monolithic %.0f",
				r.Interval, r.GroupID, got, r.ActualWasteBits)
		}
	}
}

// TestClusterDeterministic is the cluster engine's acceptance
// guarantee: a cluster session produces a bit-identical trace for
// Parallelism ∈ {1,4,8}, and the handover pass conserves users — the engine verifies after every
// interval boundary that no twin is lost or duplicated and fails the
// run otherwise, so a successful run certifies conservation.
func TestClusterDeterministic(t *testing.T) {
	for _, seed := range []int64{7, 1234} {
		var base *ClusterTrace
		for _, workers := range []int{1, 4, 8} {
			trace := mustClusterTrace(t, clusterTestConfig(seed, workers))
			if base == nil {
				base = trace
				if len(base.Records) == 0 {
					t.Fatalf("seed %d: empty cluster trace", seed)
				}
				continue
			}
			if !reflect.DeepEqual(trace.Records, base.Records) {
				t.Fatalf("seed %d workers %d: records diverged", seed, workers)
			}
			if !reflect.DeepEqual(trace.Cells, base.Cells) {
				t.Fatalf("seed %d workers %d: cell stats diverged", seed, workers)
			}
			if trace.Handovers != base.Handovers || trace.ChurnedUsers != base.ChurnedUsers {
				t.Fatalf("seed %d workers %d: handovers %d/%d churned %d/%d",
					seed, workers, trace.Handovers, base.Handovers,
					trace.ChurnedUsers, base.ChurnedUsers)
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
