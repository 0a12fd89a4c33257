package main

import (
	"fmt"
	"runtime"
	"slices"

	"dtmsvs"
	"dtmsvs/internal/obs"
)

// companionSteps is where the untraced companion of the traced pass
// stops: trace.overhead_pct compares the median Step over the intervals
// both passes ran.
const companionSteps = 12

// stageNames are the sim stage timers the traced pass reads from the
// metrics registry, with the metric each becomes. Prologue stages run
// once per engine, interval stages once per engine per interval.
var stageNames = []struct {
	stage, metric string
	perInterval   bool
}{
	{"interval/tick_collect", "sim.stage.tick_collect_ms", true},
	{"interval/stream", "sim.stage.stream_ms", true},
	{"interval/schedule", "sim.stage.schedule_ms", true},
	{"interval/abstract", "sim.stage.abstract_ms", true},
	{"interval/regroup", "sim.stage.regroup_ms", true},
	{"interval/churn", "sim.stage.churn_ms", true},
	{"prologue/train", "sim.stage.train_ms", false},
	{"prologue/warmup", "sim.stage.warmup_ms", false},
	{"prologue/group_build", "sim.stage.group_build_ms", false},
}

// stageReadings sums each stage's histogram over cells: per interval
// for interval stages (a mean — the registry keeps histograms, not
// samples), in total for prologue stages. A stage the registry never
// saw reads 0 and is left out of sim.stage.observed, which is how the
// distributed engine's missing worker-side stages show.
func stageReadings(reg *dtmsvs.MetricsRegistry, intervals int) []reading {
	family := reg.Snapshot().Family(obs.StageFamily)
	var out []reading
	observed := 0
	for _, st := range stageNames {
		var seconds float64
		var count uint64
		if family != nil {
			for i := range family.Series {
				if s := &family.Series[i]; s.Label("stage") == st.stage {
					seconds += s.Sum
					count += s.Count
				}
			}
		}
		if count > 0 {
			observed++
		}
		ms := seconds * 1000
		if st.perInterval {
			ms /= float64(intervals)
		}
		out = append(out, reading{name: st.metric, value: ms, unit: "ms", samples: int(count)})
	}
	return append(out, reading{name: "sim.stage.observed", value: float64(observed), unit: "count"})
}

// tracedPass is the separate traced run: one repetition with spans, the
// metrics registry and the timing sink, an untraced companion for the
// overhead, and the layer probes.
func tracedPass(h *harness, w workload, seed int64) ([]reading, string, error) {
	cfg := w.config(seed)
	tr := h.tr

	h.tr = nil
	plain, err := runRep(h, w, cfg, repOpts{rep: 0, stopAfter: min(companionSteps, w.intervals)})
	if err != nil {
		return nil, "", err
	}
	h.tr = tr
	runtime.GC()

	reg := dtmsvs.NewMetricsRegistry()
	r, err := runRep(h, w, cfg, repOpts{rep: 1, reg: reg})
	if err != nil {
		return nil, "", err
	}

	var out []reading
	add := func(name string, v float64, unit string, samples int) {
		out = append(out, reading{name: name, value: v, unit: unit, samples: samples})
	}
	ui := float64(w.users * w.intervals)
	wallMs := r.window.wallS * 1000
	decodeMs := median(r.decodeMs)
	stepP50 := median(r.stepMs)
	ckptP50 := median(r.ckptMs)
	ckptMB := float64(r.ckptBytes) / 1e6

	add("session.open_ms", r.openS*1000, "ms", 0)
	add("session.step_first_ms", r.firstStepMs, "ms", 0)
	add("session.step_ms_p50", stepP50, "ms", len(r.stepMs))
	add("session.close_ms", r.closeMs, "ms", 0)
	add("session.steps", float64(len(tr.named("step"))), "count", 0)
	add("session.step_errors", 0, "count", 0) // a failed Step ends the run before this line
	add("session.prologue_share", r.prologueS/r.window.wallS, "ratio", 0)
	// Only a durable workload checkpoints and resumes inside its window;
	// the harness's samples on the others are outside it.
	var durable float64
	if w.durable {
		durable = sum(r.ckptMs) + sum(r.decodeMs)
	}
	add("session.checkpoint_share", durable/wallMs, "ratio", 0)
	// The companion ran without the tracer, so span 0 is this repetition.
	add("session.harness_self_ms", selfMs(tr.spans, 0), "ms", 0)

	add("sink.write_ms_total", float64(r.sink.writeNs)/1e6, "ms", 0)
	add("sink.flush_ms_total", float64(r.sink.flushNs)/1e6, "ms", 0)
	add("sink.records", float64(r.sink.records), "count", 0)
	add("sink.bytes", float64(r.traceBytes), "B", 0)
	add("sink.read_ms", r.readS*1000, "ms", 0)
	add("sink.read_mrec_per_s", float64(r.nRecords)/1e6/r.readS, "Mrec/s", 0)

	out = append(out, stageReadings(reg, w.intervals)...)
	all := append([]float64{r.firstStepMs}, r.stepMs...)
	add("sim.interval_growth_ratio", windowRatio(all), "ratio", 0)
	add("sim.alloc_growth_ratio", windowRatio(r.stepAllocKB), "ratio", 0)

	add("checkpoint.encode_ms_p50", ckptP50, "ms", len(r.ckptMs))
	add("checkpoint.encode_mb_per_s", ckptMB/(ckptP50/1000), "MB/s", 0)
	add("checkpoint.decode_ms", decodeMs, "ms", len(r.decodeMs))
	add("checkpoint.decode_mb_per_s", ckptMB/(decodeMs/1000), "MB/s", 0)
	add("checkpoint.bytes", float64(r.ckptBytes), "B", 0)
	add("checkpoint.encode_vs_interval", ckptP50/stepP50, "ratio", 0)

	add("edge.cache_hit_rate", r.cacheHit, "ratio", 0)
	add("parallel.busy_cores", r.window.cpuS/r.window.wallS, "cores", 0)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	add("host.gc_cpu_pct", mem.GCCPUFraction*100, "%", 0)
	add("host.num_gc", float64(r.window.numGC), "count", 0)
	add("host.mallocs_per_ui", float64(r.window.mallocs)/ui, "count", 0)
	shared := min(len(plain.stepMs), len(r.stepMs))
	add("trace.overhead_pct", (median(r.stepMs[:shared])/median(plain.stepMs[:shared])-1)*100, "%", shared)

	probes := []func() ([]reading, error){
		func() ([]reading, error) { return probeTracebin(h, slices.Concat(r.records...)) },
		func() ([]reading, error) { return probeLearning(h, cfg.Sim, w.engineUsers(), w.intervals) },
		func() ([]reading, error) { return probeSim(h, cfg.Sim, w.engineUsers()) },
		func() ([]reading, error) {
			// The boundary probes run the workload's scenario with
			// DDQN training bypassed and two workers.
			bcfg := cfg
			if bcfg.Sim.FixedK == 0 {
				bcfg.Sim.FixedK = probeFixedK
			}
			bcfg.Sim.NumIntervals = probeSteps
			got, clusterStepMs, err := probeCluster(h, bcfg)
			if err != nil {
				return nil, err
			}
			more, err := probeCoord(h, bcfg, max(2, w.workers), clusterStepMs)
			return append(got, more...), err
		},
	}
	for _, probe := range probes {
		got, err := probe()
		if err != nil {
			return nil, "", fmt.Errorf("probe: %w", err)
		}
		out = append(out, got...)
		runtime.GC()
	}
	return out, r.sha, nil
}
