package dtmsvs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"dtmsvs/internal/obs"
	"dtmsvs/internal/vecmath"
)

// metricsOpeners enumerates both engines for the metrics suites, each
// with the resume that restores its checkpoints: the monolithic
// engine, the cluster engine over a single station ("cluster-s1", one
// cell) and over NumBS stations ("cluster", one cell per station).
func metricsOpeners(seed int64, workers int) []struct {
	name   string
	open   func(opts ...SessionOption) (Session, error)
	resume func(r io.Reader, opts ...SessionOption) (Session, error)
} {
	cfg := sessionTestConfig(seed, workers)
	cluster := func(stations int) ClusterConfig {
		c := ClusterConfig{Sim: cfg}
		c.Sim.NumBS = stations
		return c
	}
	return []struct {
		name   string
		open   func(opts ...SessionOption) (Session, error)
		resume func(r io.Reader, opts ...SessionOption) (Session, error)
	}{
		{"sim",
			func(opts ...SessionOption) (Session, error) { return Open(cfg, opts...) },
			func(r io.Reader, opts ...SessionOption) (Session, error) { return Resume(cfg, r, opts...) }},
		{"cluster-s1",
			func(opts ...SessionOption) (Session, error) { return OpenCluster(cluster(1), opts...) },
			func(r io.Reader, opts ...SessionOption) (Session, error) {
				return ResumeCluster(cluster(1), r, opts...)
			}},
		{"cluster",
			func(opts ...SessionOption) (Session, error) { return OpenCluster(cluster(cfg.NumBS), opts...) },
			func(r io.Reader, opts ...SessionOption) (Session, error) {
				return ResumeCluster(cluster(cfg.NumBS), r, opts...)
			}},
	}
}

// TestTraceIdenticalWithMetrics is the observability no-perturbation
// contract: mounting a metrics registry changes nothing about the
// trace. Both engines, serial and parallel, dispatched and generic
// kernels produce byte-identical NDJSON streams with metrics on and
// off.
func TestTraceIdenticalWithMetrics(t *testing.T) {
	defer vecmath.ForceGeneric(false)
	for _, generic := range []bool{false, true} {
		vecmath.ForceGeneric(generic)
		kernels := "dispatched"
		if generic {
			kernels = "generic"
		}
		for _, workers := range []int{1, 4, 8} {
			for _, eng := range metricsOpeners(31, workers) {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", eng.name, kernels, workers), func(t *testing.T) {
					plain, _ := ndjsonRun(t, eng.open)
					reg := NewMetricsRegistry()
					instrumented, _ := ndjsonRun(t, func(opts ...SessionOption) (Session, error) {
						return eng.open(append(opts, WithMetrics(reg))...)
					})
					if instrumented != plain {
						t.Fatal("trace diverged with metrics mounted")
					}
					// And the registry actually saw the run.
					if got := counterValue(t, reg, "dtmsvs_steps_total"); got == 0 {
						t.Fatal("instrumented run recorded no steps")
					}
				})
			}
		}
	}
}

// counterValue sums a counter family across all label sets.
func counterValue(t *testing.T, reg *MetricsRegistry, name string) float64 {
	t.Helper()
	fam := reg.Snapshot().Family(name)
	if fam == nil {
		return 0
	}
	var total float64
	for _, s := range fam.Series {
		total += s.Value
	}
	return total
}

// TestSessionMetricsSnapshot drives one instrumented run per engine
// end to end — including a checkpoint — and checks the snapshot's
// structural claims: step and stage counts match the run shape, the
// cluster engine labels per-cell series, and checkpoint metrics
// report the encoded size.
func TestSessionMetricsSnapshot(t *testing.T) {
	for _, eng := range metricsOpeners(33, 2) {
		t.Run(eng.name, func(t *testing.T) {
			reg := NewMetricsRegistry()
			s, err := eng.open(WithMetrics(reg), WithSink(DiscardSink{}))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			steps := 0
			for !s.Done() {
				if _, serr := s.Step(context.Background()); serr != nil {
					t.Fatal(serr)
				}
				steps++
			}
			var ckpt bytes.Buffer
			if err := s.Checkpoint(&ckpt); err != nil {
				t.Fatal(err)
			}

			snap := reg.Snapshot()
			if got := counterValue(t, reg, "dtmsvs_steps_total"); got != float64(steps) {
				t.Fatalf("steps_total = %v, want %d", got, steps)
			}
			stages := snap.Family(obs.StageFamily)
			if stages == nil {
				t.Fatal("no stage family in snapshot")
			}
			byStage := map[string]uint64{}
			cells := map[string]bool{}
			for _, sr := range stages.Series {
				byStage[sr.Label("stage")] += sr.Count
				if c := sr.Label("cell"); c != "" {
					cells[c] = true
				}
			}
			if byStage["step"] != uint64(steps) {
				t.Fatalf("step stage count = %d, want %d", byStage["step"], steps)
			}
			for _, stage := range []string{"prologue/warmup", "prologue/train", "prologue/group_build",
				"interval/tick_collect", "interval/schedule", "interval/stream", "interval/sink_write",
				"interval/sink_flush"} {
				if byStage[stage] == 0 {
					t.Fatalf("stage %q never observed (have %v)", stage, byStage)
				}
			}
			if byStage["checkpoint/encode"] != 1 {
				t.Fatalf("checkpoint/encode count = %d, want 1", byStage["checkpoint/encode"])
			}
			if byStage["checkpoint/restore"] != 0 {
				t.Fatalf("checkpoint/restore count = %d in a session never resumed", byStage["checkpoint/restore"])
			}
			if eng.name != "sim" {
				want := 2
				if eng.name == "cluster-s1" {
					want = 1
				}
				if len(cells) != want {
					t.Fatalf("cluster run labelled %d cells, want %d", len(cells), want)
				}
				if snap.Family("dtmsvs_handovers_total") == nil {
					t.Fatal("cluster run missing handover counter")
				}
			} else if len(cells) != 0 {
				t.Fatalf("monolithic run has cell labels %v", cells)
			}
			if got := counterValue(t, reg, "dtmsvs_checkpoints_total"); got != 1 {
				t.Fatalf("checkpoints_total = %v, want 1", got)
			}
			sizeFam := snap.Family("dtmsvs_checkpoint_bytes")
			if sizeFam == nil || len(sizeFam.Series) != 1 || sizeFam.Series[0].Value != float64(ckpt.Len()) {
				t.Fatalf("checkpoint_bytes disagrees with encoded size %d: %+v", ckpt.Len(), sizeFam)
			}
			// Engine component families exist and carry signal.
			for _, name := range []string{"dtmsvs_engine_intervals_total",
				"dtmsvs_edge_cache_hits_total", "dtmsvs_edge_cache_misses_total"} {
				if counterValue(t, reg, name) == 0 {
					t.Fatalf("family %s absent or zero after a full run", name)
				}
			}

			// Resuming the checkpoint observes one restore.
			resumed := NewMetricsRegistry()
			r, err := eng.resume(bytes.NewReader(ckpt.Bytes()), WithMetrics(resumed), WithSink(DiscardSink{}))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			restores := uint64(0)
			for _, sr := range resumed.Snapshot().Family(obs.StageFamily).Series {
				if sr.Label("stage") == "checkpoint/restore" {
					restores += sr.Count
				}
			}
			if restores != 1 {
				t.Fatalf("checkpoint/restore count = %d after one resume, want 1", restores)
			}
		})
	}
}

// TestSessionMetricsSinkRetries pins the sink fault path's counters:
// a transient sink fault fails the step and counts as one sink error,
// and the registry carries no retry family.
func TestSessionMetricsSinkRetries(t *testing.T) {
	cfg := sessionTestConfig(25, 2)

	reg := NewMetricsRegistry()
	sink := &transientSink{TraceSink: NewNDJSONSink(&bytes.Buffer{}), writeAt: 2}
	s, serr := runWithSink(t, cfg, sink, WithMetrics(reg))
	if !errors.Is(serr, ErrSink) {
		t.Fatalf("want ErrSink, got %v", serr)
	}
	if cerr := s.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if got := counterValue(t, reg, "dtmsvs_sink_errors_total"); got != 1 {
		t.Fatalf("sink errors = %v, want 1", got)
	}
	for _, fam := range reg.Snapshot().Families {
		if strings.HasSuffix(fam.Name, "_retries_total") {
			t.Fatalf("unexpected retry family %s", fam.Name)
		}
	}
}

// TestObserverPanicSurfaced: a panicking observer or progress callback
// surfaces as an ErrObserver-wrapped error from that Step without
// corrupting the stepper — the interval's records are already flushed,
// the report is returned intact, and the session continues to a trace
// bit-identical to a clean run.
func TestObserverPanicSurfaced(t *testing.T) {
	cfg := sessionTestConfig(27, 2)
	clean, _ := ndjsonRun(t, func(opts ...SessionOption) (Session, error) { return Open(cfg, opts...) })

	for _, tc := range []struct {
		name string
		opt  func(panicAt int) SessionOption
	}{
		{"observer", func(panicAt int) SessionOption {
			return WithObserver(func(rep IntervalReport) {
				if rep.Interval == panicAt {
					panic("observer boom")
				}
			})
		}},
		{"progress", func(panicAt int) SessionOption {
			return WithProgress(func(done, total int) {
				if done == panicAt+1 {
					panic("progress boom")
				}
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const panicAt = 1
			var buf bytes.Buffer
			s, err := Open(cfg, WithSink(NewNDJSONSink(&buf)), tc.opt(panicAt))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			sawPanic := false
			for !s.Done() {
				rep, serr := s.Step(context.Background())
				if serr != nil {
					if !errors.Is(serr, ErrObserver) {
						t.Fatalf("want ErrObserver, got %v", serr)
					}
					if rep.Interval != panicAt {
						t.Fatalf("panic surfaced at interval %d, want %d", rep.Interval, panicAt)
					}
					sawPanic = true
				}
			}
			if !sawPanic {
				t.Fatal("panicking callback never surfaced an error")
			}
			if s.Interval() != cfg.NumIntervals {
				t.Fatalf("session stopped at interval %d", s.Interval())
			}
			if buf.String() != clean {
				t.Fatal("trace diverged after observer panic")
			}
		})
	}
}

// TestStepDurationsReported: every report carries a positive
// StepDuration; PrologueDuration is positive exactly on the first
// report (where warm-up/training ran) and zero afterwards — including
// the single-interval degenerate run, where the only report carries
// both.
func TestStepDurationsReported(t *testing.T) {
	for _, intervals := range []int{1, 4} {
		t.Run(fmt.Sprintf("intervals=%d", intervals), func(t *testing.T) {
			cfg := sessionTestConfig(29, 2)
			cfg.NumIntervals = intervals
			var progress [][2]int
			s, err := Open(cfg, WithSink(DiscardSink{}),
				WithProgress(func(done, total int) { progress = append(progress, [2]int{done, total}) }))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; !s.Done(); i++ {
				rep, serr := s.Step(context.Background())
				if serr != nil {
					t.Fatal(serr)
				}
				if rep.StepDuration <= 0 {
					t.Fatalf("interval %d: StepDuration = %v", i, rep.StepDuration)
				}
				if i == 0 {
					if rep.PrologueDuration <= 0 {
						t.Fatalf("first report PrologueDuration = %v", rep.PrologueDuration)
					}
					if rep.PrologueDuration > rep.StepDuration {
						t.Fatalf("prologue %v exceeds its own step %v", rep.PrologueDuration, rep.StepDuration)
					}
				} else if rep.PrologueDuration != 0 {
					t.Fatalf("interval %d: PrologueDuration = %v, want 0", i, rep.PrologueDuration)
				}
			}
			if len(progress) != intervals || progress[len(progress)-1] != [2]int{intervals, intervals} {
				t.Fatalf("progress %v for %d intervals", progress, intervals)
			}
		})
	}
}

// TestStepMetricsAllocOverhead is the 0-alloc gate for the
// instrumentation itself: two sessions stepped in lockstep over the
// same seed — one bare, one with a mounted registry — allocate
// identically in steady state. All metric updates are atomic
// increments and lock-free time observations, so the registry must
// not add a single allocation to the Step path.
func TestStepMetricsAllocOverhead(t *testing.T) {
	cfg := sessionTestConfig(35, 1)
	cfg.NumIntervals = 90
	sOff, err := Open(cfg, WithSink(DiscardSink{}))
	if err != nil {
		t.Fatal(err)
	}
	defer sOff.Close()
	sOn, err := Open(cfg, WithSink(DiscardSink{}), WithMetrics(NewMetricsRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer sOn.Close()
	ctx := context.Background()
	step := func(s Session) func() {
		return func() {
			if _, serr := s.Step(ctx); serr != nil {
				t.Fatal(serr)
			}
		}
	}
	// Prologue plus settling intervals outside the measurement; both
	// sessions consume the same interval numbers below, so their
	// per-interval work (regroup cadence, churn, cache churn) matches
	// exactly.
	for i := 0; i < 3; i++ {
		step(sOff)()
		step(sOn)()
	}
	// A GC landing inside one measurement window and not the other
	// shifts the count by an alloc or two (pool refills), so the gate
	// takes the best of several lockstep rounds: a real per-step cost
	// of the instrumentation would survive every round.
	const runs, rounds = 12, 3
	best := math.Inf(1)
	for r := 0; r < rounds; r++ {
		allocsOff := testing.AllocsPerRun(runs, step(sOff))
		allocsOn := testing.AllocsPerRun(runs, step(sOn))
		if d := allocsOn - allocsOff; d < best {
			best = d
		}
	}
	if best > 0 {
		t.Fatalf("mounted registry added %v allocation(s) per steady-state Step in every round", best)
	}
}

// TestAccuracyTrackerEmpty: a tracker that observed nothing fails
// loudly from every accuracy accessor instead of returning 0 — the
// same contract as the batch helpers on an empty trace.
func TestAccuracyTrackerEmpty(t *testing.T) {
	var acc AccuracyTracker
	if _, err := acc.RadioAccuracy(); err == nil {
		t.Fatal("RadioAccuracy on empty tracker: want error")
	}
	if _, err := acc.ComputeAccuracy(); err == nil {
		t.Fatal("ComputeAccuracy on empty tracker: want error")
	}
	if _, err := acc.WasteAccuracy(); err == nil {
		t.Fatal("WasteAccuracy on empty tracker: want error")
	}
	// Observing a report with no records must not unlock the accessors.
	acc.Observe(IntervalReport{Interval: 0})
	if _, err := acc.RadioAccuracy(); err == nil {
		t.Fatal("RadioAccuracy after empty report: want error")
	}
}

// TestZeroTranscodeRunIsExact: the dense deployment `dtsim -users 2000
// -bs 8 -intervals 4` streams every group at the top rung, so it
// transcodes nothing and forecasts nothing to transcode. Its compute
// accuracy is exact through the online tracker dtsim's summary folds
// and through the trace method alike — not an undefined metric that
// failed the run after its trace was written.
func TestZeroTranscodeRunIsExact(t *testing.T) {
	cfg := DefaultConfig(42)
	cfg.NumUsers = 2000
	cfg.NumBS = 8
	cfg.NumIntervals = 4
	cfg.Grouping.UseCNN = true
	var acc AccuracyTracker
	s, err := Open(cfg, WithObserver(acc.Observe))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for !s.Done() {
		if _, err := s.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	tr := s.Trace()
	for _, r := range tr.Records {
		if r.ActualCycles != 0 || r.PredictedCycles != 0 {
			t.Fatalf("interval %d group %d: %v cycles predicted, %v actual; the deployment no longer runs transcode-free",
				r.Interval, r.GroupID, r.PredictedCycles, r.ActualCycles)
		}
	}
	for name, score := range map[string]func() (float64, error){
		"tracker": acc.ComputeAccuracy,
		"trace":   tr.ComputeAccuracy,
	} {
		if got, err := score(); err != nil || got != 1 {
			t.Fatalf("%s compute accuracy %v (%v), want exactly 1", name, got, err)
		}
	}
}
