// Package dtmsvs is a Go reproduction of "Digital Twin-Assisted
// Resource Demand Prediction for Multicast Short Video Streaming"
// (Huang, Wu, Shen — ICDCS 2023, arXiv:2306.05946).
//
// The library builds user digital twins (UDTs) that collect channel
// condition, location, watching duration and preference; constructs
// multicast groups with a 1D-CNN + DDQN-empowered K-means++ pipeline;
// abstracts per-group swiping probability distributions and
// recommended videos; and predicts each group's radio (resource
// block) and computing (transcode cycle) demand per 5-minute
// reservation interval.
//
// The entry point is Open, which returns a Session over a scenario;
// each Step runs one 5-minute interval (the first also runs warm-up,
// CNN + DDQN training and group construction) and reports its
// predicted-vs-actual demand. OpenCluster and OpenDistributed run the
// multi-BS scenario, one cell per station, behind the same Session.
// The experiment runners in experiments.go regenerate the paper's
// Fig. 3 panels and the extended evaluation.
//
// Everything is deterministic given Config.Seed and uses only the
// standard library.
package dtmsvs

import (
	"dtmsvs/internal/cluster"
	"dtmsvs/internal/faultinject"
	"dtmsvs/internal/grouping"
	"dtmsvs/internal/predict"
	"dtmsvs/internal/sim"
	"dtmsvs/internal/video"
)

// Config parameterizes a simulation scenario. See the field docs in
// internal/sim for defaults; the zero value plus NumUsers, NumBS and
// NumIntervals is a runnable scenario.
type Config = sim.Config

// GroupingConfig configures the two-step multicast group construction
// (1D-CNN compression → DDQN K-selection → K-means++).
type GroupingConfig = grouping.Config

// Trace is a full simulation output: per-(interval, group) records of
// predicted and measured demand, the final swiping distributions, and
// run-level statistics.
type Trace = sim.Trace

// GroupIntervalRecord is the demand part of a trace row; a Trace's
// rows are TraceRecords, which add the serving cell.
type GroupIntervalRecord = sim.GroupIntervalRecord

// SwipeDistribution is a group's per-category swiping probability
// distribution (the Fig. 3(a) artifact).
type SwipeDistribution = predict.SwipeDistribution

// Category is a short-video content category (News … Game).
type Category = video.Category

// The five categories used by the paper's evaluation.
const (
	News   = video.News
	Sports = video.Sports
	Music  = video.Music
	Comedy = video.Comedy
	Game   = video.Game
)

// NumCategories is the size of the category set.
const NumCategories = video.NumCategories

// ClusterConfig parameterizes a multi-BS cluster run: the base
// scenario plus an optional cell-fault schedule.
type ClusterConfig = cluster.Config

// ClusterTrace is the merged output of a cluster run: per-(interval,
// cell, group) records plus per-cell statistics, handover and churn
// counts, and the aggregate cache hit rate.
type ClusterTrace = cluster.Trace

// ClusterRecord is one row of a ClusterTrace.
type ClusterRecord = cluster.Record

// ClusterCellStats summarizes one coverage cell of a cluster run.
type ClusterCellStats = cluster.CellStats

// CellFault schedules the failure of one cluster coverage cell at a
// scheduling-interval boundary, with an optional later revival. Put
// faults in ClusterConfig.Faults: a firing fault quarantines the cell
// and evacuates its twins to the surviving cells, and a cell with a
// ReviveAt ≥ 0 returns empty and cold at that boundary.
type CellFault = faultinject.CellFault

// CellFaultPlan derives a deterministic chaos plan from its own seed:
// which cell dies, at which of the scenario's intervals, and
// whether/when it revives. The same arguments always produce the
// same plan, so a chaotic run replays bit-identically.
func CellFaultPlan(seed int64, cells, intervals int) CellFault {
	return faultinject.CellPlan(seed, cells, intervals)
}

// DefaultConfig returns the paper-scale scenario used by the Fig. 3
// reproduction: 100 users on the campus map, 4 base stations, 24
// five-minute reservation intervals, News-heavy catalog. Prefetching
// is disabled (the paper's delivery model has none); the waste
// experiments (E8/E9) enable it explicitly.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:          seed,
		NumUsers:      100,
		NumBS:         4,
		NumIntervals:  24,
		PrefetchDepth: -1,
	}
}
