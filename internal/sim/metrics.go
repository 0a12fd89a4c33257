// Observability mount for the engine. SetMetrics attaches an
// obs.Registry after construction — deliberately not a Config field,
// so the checkpoint fingerprint and every existing construction path
// are untouched. All handles are nil-safe: an engine without a
// mounted registry records nothing and pays one nil check per stage
// boundary.
//
// Determinism: the stage timers observe wall-clock durations out of
// band and the counters mirror state the engine already computes;
// nothing here reads the RNG or feeds back into simulation state, so
// traces are bit-identical with metrics on or off.
package sim

import (
	"dtmsvs/internal/obs"
)

// engineMetrics holds the per-engine stage timers and counters. The
// zero value (no registry mounted) is fully inert.
type engineMetrics struct {
	warmup, train, build *obs.Stage

	tickCollect, schedule, stream *obs.Stage
	abstract, churn, regroup      *obs.Stage

	intervals *obs.Counter
	churned   *obs.Counter
	groups    *obs.Gauge
}

// SetMetrics mounts reg on the engine. The labels (e.g. cell="3" in
// a cluster run) are attached to every series the engine registers.
// The edge cache's counters are exported as func-backed series
// reading the cache's own atomics, so they stay live for HTTP export without any per-operation hook. Call
// before stepping; a nil reg is a no-op.
func (s *Simulation) SetMetrics(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	s.met = engineMetrics{
		warmup:      reg.Stage("prologue/warmup", labels...),
		train:       reg.Stage("prologue/train", labels...),
		build:       reg.Stage("prologue/group_build", labels...),
		tickCollect: reg.Stage("interval/tick_collect", labels...),
		schedule:    reg.Stage("interval/schedule", labels...),
		stream:      reg.Stage("interval/stream", labels...),
		abstract:    reg.Stage("interval/abstract", labels...),
		churn:       reg.Stage("interval/churn", labels...),
		regroup:     reg.Stage("interval/regroup", labels...),
		intervals:   reg.Counter("dtmsvs_engine_intervals_total", "Simulation intervals completed by the engine.", labels...),
		churned:     reg.Counter("dtmsvs_churned_users_total", "Users replaced by churn.", labels...),
		groups:      reg.Gauge("dtmsvs_groups", "Current number of multicast groups.", labels...),
	}
	cache := s.server.Cache()
	reg.CounterFunc("dtmsvs_edge_cache_hits_total", "Edge cache lookups served from the cache.",
		func() uint64 { h, _ := cache.Counts(); return uint64(h) }, labels...)
	reg.CounterFunc("dtmsvs_edge_cache_misses_total", "Edge cache lookups that missed.",
		func() uint64 { _, m := cache.Counts(); return uint64(m) }, labels...)
	reg.CounterFunc("dtmsvs_edge_cache_evictions_total", "Edge cache LRU evictions.",
		func() uint64 { return uint64(cache.Evictions()) }, labels...)
	reg.GaugeFunc("dtmsvs_edge_cache_used_bytes", "Bytes resident in the edge cache.",
		func() float64 { return float64(cache.Used()) }, labels...)
}
