package dtmsvs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"dtmsvs/internal/coord"
	"dtmsvs/internal/faultinject"
)

// TestMain lets the test binary double as the distributed worker:
// WithWorkerProcesses() re-execs this binary, and MaybeWorker turns
// the child into a frame worker before the test framework starts.
func TestMain(m *testing.M) {
	MaybeWorker()
	os.Exit(m.Run())
}

// distTestConfig needs NumBS >= 4 so the worker matrix {1,2,4} has
// cells to own; otherwise it mirrors sessionTestConfig's scale.
func distTestConfig(seed int64, workers int) ClusterConfig {
	return ClusterConfig{Sim: Config{
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
	}}
}

// withSupervisor edits the supervisor configuration OpenDistributed
// builds, reaching the timescales and process faults that no session
// option sets (the root twin of the coord package's fastFailure).
// Edits apply in option order.
func withSupervisor(edit func(*coord.Config)) SessionOption {
	return func(o *sessionOptions) {
		prev := o.tuneSupervisor
		o.tuneSupervisor = func(c *coord.Config) {
			if prev != nil {
				prev(c)
			}
			edit(c)
		}
	}
}

// fastHeartbeat shrinks the failure-detection timescales so chaos
// tests run in milliseconds: beats every 10ms, dead after 5 missed, up
// to 10 restarts backing off from 2ms.
func fastHeartbeat() SessionOption {
	return withSupervisor(func(c *coord.Config) {
		c.Heartbeat = 10 * time.Millisecond
		c.HeartbeatMiss = 5
		c.MaxRestarts = 10
		c.Backoff = 2 * time.Millisecond
	})
}

// heartbeat sets the beat period and how many missed beats declare a
// worker dead.
func heartbeat(period time.Duration, miss int) SessionOption {
	return withSupervisor(func(c *coord.Config) {
		c.Heartbeat = period
		c.HeartbeatMiss = miss
	})
}

// noRestarts forbids restarts, so a worker's first loss fails the run.
func noRestarts() SessionOption {
	return withSupervisor(func(c *coord.Config) { c.MaxRestarts = -1 })
}

// procFaults schedules process faults on the workers; hang bounds how
// long a ProcHang fault stalls its worker (0 = coord's 30s).
func procFaults(hang time.Duration, faults ...faultinject.ProcFault) SessionOption {
	return withSupervisor(func(c *coord.Config) {
		c.Faults = faults
		c.HangDuration = hang
	})
}

// driveDist steps a distributed session to completion and returns its
// NDJSON stream plus a final session checkpoint.
func driveDist(t *testing.T, cfg ClusterConfig, workers int, opts ...SessionOption) (*DistSession, string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	s, err := OpenDistributed(cfg, workers, append(opts, WithSink(NewNDJSONSink(&buf)))...)
	if err != nil {
		t.Fatal(err)
	}
	for !s.Done() {
		if _, serr := s.Step(context.Background()); serr != nil {
			s.Close()
			t.Fatal(serr)
		}
	}
	var ckpt bytes.Buffer
	if err := s.Checkpoint(&ckpt); err != nil {
		s.Close()
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return s, buf.String(), ckpt.Bytes()
}

// TestDistributedMatchesCluster is the root-level bit-identity
// contract: for every worker count and intra-worker parallelism, the
// distributed session streams byte-identical NDJSON to the
// single-process cluster session and reports identical run stats.
func TestDistributedMatchesCluster(t *testing.T) {
	const seed = 23
	want, _ := ndjsonRun(t, func(opts ...SessionOption) (Session, error) {
		return OpenCluster(distTestConfig(seed, 1), opts...)
	})
	ref := mustClusterTrace(t, distTestConfig(seed, 1))
	for _, workers := range []int{1, 2, 4} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("workers=%d/par=%d", workers, par), func(t *testing.T) {
				s, stream, _ := driveDist(t, distTestConfig(seed, par), workers)
				if stream != want {
					t.Fatal("distributed NDJSON diverged from cluster session")
				}
				tr := s.Trace()
				if !reflect.DeepEqual(tr.Cells, ref.Cells) {
					t.Fatalf("cell stats diverged:\n got %+v\nwant %+v", tr.Cells, ref.Cells)
				}
				if tr.Handovers != ref.Handovers || tr.ChurnedUsers != ref.ChurnedUsers ||
					tr.CacheHitRate != ref.CacheHitRate {
					t.Fatal("run stats diverged")
				}
				if s.WorkerRestarts() != 0 || s.HeartbeatMisses() != 0 {
					t.Fatalf("healthy run recovered: %d restarts, %d misses",
						s.WorkerRestarts(), s.HeartbeatMisses())
				}
			})
		}
	}
}

// TestDistributedTraceRetained: without a sink the distributed session
// retains the merged records, matching the cluster engine's trace.
func TestDistributedTraceRetained(t *testing.T) {
	const seed = 29
	ref := mustClusterTrace(t, distTestConfig(seed, 1))
	s, err := OpenDistributed(distTestConfig(seed, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for !s.Done() {
		if _, serr := s.Step(context.Background()); serr != nil {
			t.Fatal(serr)
		}
	}
	if tr := s.Trace(); !reflect.DeepEqual(tr.Records, ref.Records) {
		t.Fatalf("retained records diverged (%d vs %d rows)", len(tr.Records), len(ref.Records))
	}
}

// TestDistributedChaosRecovery is the root chaos contract: kill, hang
// and garbage faults are each recovered from the last acked boundary,
// the NDJSON stream and the final session checkpoint stay
// byte-identical to the unfaulted run, and the recovery shows up in
// the counters and the metrics registry.
func TestDistributedChaosRecovery(t *testing.T) {
	const seed = 59
	cfg := distTestConfig(seed, 2)
	_, cleanStream, cleanCkpt := driveDist(t, cfg, 2)

	reg := NewMetricsRegistry()
	s, stream, ckpt := driveDist(t, cfg, 2,
		fastHeartbeat(),
		procFaults(150*time.Millisecond,
			faultinject.ProcFault{Worker: 0, Interval: 1, Kind: faultinject.ProcKill},
			faultinject.ProcFault{Worker: 1, Interval: 2, Kind: faultinject.ProcHang},
			faultinject.ProcFault{Worker: 0, Interval: 3, Kind: faultinject.ProcGarbage},
		),
		WithMetrics(reg),
	)
	if stream != cleanStream {
		t.Fatal("chaos run NDJSON diverged from clean run")
	}
	if !bytes.Equal(ckpt, cleanCkpt) {
		t.Fatal("chaos run final checkpoint diverged from clean run")
	}
	if s.WorkerRestarts() < 3 {
		t.Fatalf("restarts %d, want at least one per fault", s.WorkerRestarts())
	}
	if s.HeartbeatMisses() < 1 {
		t.Fatalf("hang never tripped the heartbeat deadline (misses %d)", s.HeartbeatMisses())
	}

	snap := reg.Snapshot()
	for name, min := range map[string]float64{
		"dtmsvs_worker_restarts_total": 3,
		"dtmsvs_heartbeat_miss_total":  1,
		"dtmsvs_coord_tx_bytes_total":  1,
		"dtmsvs_coord_rx_bytes_total":  1,
	} {
		fam := snap.Family(name)
		if fam == nil {
			t.Errorf("metric %s missing from registry", name)
			continue
		}
		total := 0.0
		for _, ser := range fam.Series {
			total += ser.Value
		}
		if total < min {
			t.Errorf("metric %s = %v, want >= %v", name, total, min)
		}
	}
	stages := snap.Family("dtmsvs_stage_duration_seconds")
	if stages == nil {
		t.Fatal("stage timings missing from registry")
	}
	boundary := false
	for _, ser := range stages.Series {
		if ser.Label("stage") == "coord_boundary" && ser.Count > 0 {
			boundary = true
		}
	}
	if !boundary {
		t.Error("coord_boundary stage never observed a duration")
	}
}

// TestDistributedWorkerFailed: with restarts forbidden, a worker loss
// surfaces as ErrWorkerFailed from Step and permanently fails the
// session.
func TestDistributedWorkerFailed(t *testing.T) {
	cfg := distTestConfig(17, 1)
	s, err := OpenDistributed(cfg, 2,
		noRestarts(),
		heartbeat(10*time.Millisecond, 5),
		procFaults(0, faultinject.ProcFault{Worker: 1, Interval: 0, Kind: faultinject.ProcKill}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var stepErr error
	for !s.Done() {
		if _, stepErr = s.Step(context.Background()); stepErr != nil {
			break
		}
	}
	if !errors.Is(stepErr, ErrWorkerFailed) {
		t.Fatalf("exhausted budget: %v", stepErr)
	}
}

// TestDistributedStepTimeout: a worker that stalls mid-boundary while
// its heartbeat budget still has slack is caught by the step deadline
// — Step fails with ErrWorkerFailed long before the stall ends — and
// Close still returns.
func TestDistributedStepTimeout(t *testing.T) {
	const (
		stepTimeout = 500 * time.Millisecond
		hang        = 3 * time.Second
	)
	s, err := OpenDistributed(distTestConfig(19, 1), 1,
		noRestarts(),
		heartbeat(50*time.Millisecond, 400), // 20s: longer than both
		withSupervisor(func(c *coord.Config) { c.StepTimeout = stepTimeout }),
		procFaults(hang, faultinject.ProcFault{Worker: 0, Interval: 0, Kind: faultinject.ProcHang}),
	)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, stepErr := s.Step(context.Background())
	elapsed := time.Since(start)
	if !errors.Is(stepErr, ErrWorkerFailed) || !strings.Contains(stepErr.Error(), "interval 0: step deadline") {
		t.Errorf("Step: want ErrWorkerFailed on interval 0's step deadline, got %v", stepErr)
	}
	if elapsed > hang/2 {
		t.Errorf("Step took %v: the deadline did not preempt the %v hang", elapsed, hang)
	}
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case <-closed:
	case <-time.After(hang + 10*time.Second):
		t.Fatal("Close did not return")
	}
}

// TestDistributedCheckpointResume: a distributed session checkpointed
// mid-run resumes over the wire — fresh supervisor, fresh workers —
// and finishes with a stream suffix, stats and final checkpoint all
// byte-identical to the uninterrupted run.
func TestDistributedCheckpointResume(t *testing.T) {
	const seed = 53
	cfg := distTestConfig(seed, 2)
	full, fullStream, fullCkpt := driveDist(t, cfg, 2)

	var buf bytes.Buffer
	a, err := OpenDistributed(cfg, 2, WithSink(NewNDJSONSink(&buf)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, serr := a.Step(context.Background()); serr != nil {
			t.Fatal(serr)
		}
	}
	var mid bytes.Buffer
	if err := a.Checkpoint(&mid); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := ResumeDistributed(cfg, 2, bytes.NewReader(mid.Bytes()), WithSink(NewNDJSONSink(&buf)))
	if err != nil {
		t.Fatal(err)
	}
	for !b.Done() {
		if _, serr := b.Step(context.Background()); serr != nil {
			t.Fatal(serr)
		}
	}
	var final bytes.Buffer
	if err := b.Checkpoint(&final); err != nil {
		t.Fatal(err)
	}
	if buf.String() != fullStream {
		t.Fatal("resumed stream diverged from uninterrupted run")
	}
	if !bytes.Equal(final.Bytes(), fullCkpt) {
		t.Fatal("resumed final checkpoint diverged")
	}
	if !reflect.DeepEqual(b.Trace().Cells, full.Trace().Cells) {
		t.Fatal("resumed cell stats diverged")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// Wrong worker count is a config mismatch, not silent corruption.
	if _, err := ResumeDistributed(cfg, 4, bytes.NewReader(mid.Bytes())); !errors.Is(err, ErrCheckpointConfig) {
		t.Fatalf("resume with 4 workers of a 2-worker checkpoint: %v", err)
	}
}

// slowSink stalls every Flush by delay before delegating.
type slowSink struct {
	TraceSink
	delay   time.Duration
	flushes int
}

func (s *slowSink) Flush() error {
	s.flushes++
	time.Sleep(s.delay)
	return s.TraceSink.Flush()
}

// TestDistributedSlowSinkKeepsWorkersAlive is the slow-sink /
// heartbeat interplay contract: a sink that stalls the session for
// longer than the heartbeat miss deadline must NOT be misread by the
// supervisor as a dead worker — no restarts, no heartbeat misses, and
// the delivered stream is still byte-identical.
func TestDistributedSlowSinkKeepsWorkersAlive(t *testing.T) {
	const seed = 61
	cfg := distTestConfig(seed, 1)
	_, cleanStream, _ := driveDist(t, cfg, 2)

	var buf bytes.Buffer
	// Each flush sleeps 120ms — far past the 10ms x 5 liveness
	// deadline the workers are being watched with.
	slow := &slowSink{TraceSink: NewNDJSONSink(&buf), delay: 120 * time.Millisecond}
	s, err := OpenDistributed(cfg, 2, WithSink(slow), heartbeat(10*time.Millisecond, 5))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for !s.Done() {
		if _, serr := s.Step(context.Background()); serr != nil {
			t.Fatal(serr)
		}
	}
	if buf.String() != cleanStream {
		t.Fatal("stream diverged behind a slow sink")
	}
	if s.WorkerRestarts() != 0 || s.HeartbeatMisses() != 0 {
		t.Fatalf("sink stall misread as worker failure: %d restarts, %d misses",
			s.WorkerRestarts(), s.HeartbeatMisses())
	}
	if slow.flushes < cfg.Sim.NumIntervals {
		t.Fatalf("sink stalled only %d times", slow.flushes)
	}
}

// TestDistributedSubMillisecondHeartbeat: a beat period under one
// millisecond reaches the workers rounded up to 1 ms. Truncated to 0,
// it made them fall back to 100 ms beats while the supervisor still
// declared them dead after 50 × 900 µs, so a healthy run lost its
// workers in a prologue long enough — 200 agent episodes — to outlast
// that. One in-process worker: two CPU-bound trainers on a two-core
// box can keep a worker's beat goroutine off the CPU for longer than
// the 45 ms budget, which reads as a miss on a healthy run.
func TestDistributedSubMillisecondHeartbeat(t *testing.T) {
	cfg := distTestConfig(41, 1)
	cfg.Sim.AgentEpisodes = 200
	s, err := OpenDistributed(cfg, 1, heartbeat(900*time.Microsecond, 50))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for !s.Done() {
		if _, serr := s.Step(context.Background()); serr != nil {
			t.Fatal(serr)
		}
	}
	if s.HeartbeatMisses() != 0 || s.WorkerRestarts() != 0 {
		t.Fatalf("healthy run recovered: %d misses, %d restarts", s.HeartbeatMisses(), s.WorkerRestarts())
	}
}

// TestDistributedProcessWorkers runs real child processes (this test
// binary re-exec'ed via TestMain/MaybeWorker) and real SIGKILLs. The
// default run covers a clean pass and one kill per worker count; the
// CI chaos job sets DTMSVS_CHAOS=1 to sweep SIGKILL at every interval
// boundary x workers {1,2,4}.
func TestDistributedProcessWorkers(t *testing.T) {
	const seed = 67
	cfg := distTestConfig(seed, 1)
	_, cleanStream, cleanCkpt := driveDist(t, cfg, 2)
	_, procStream, _ := driveDist(t, cfg, 2, WithWorkerProcesses())
	if procStream != cleanStream {
		t.Fatal("process-transport stream diverged from in-process run")
	}

	workerCounts := []int{2}
	intervals := []int{1}
	if os.Getenv("DTMSVS_CHAOS") != "" {
		workerCounts = []int{1, 2, 4}
		intervals = []int{0, 1, 2, 3}
	}
	for _, workers := range workerCounts {
		wantStream, wantCkpt := cleanStream, cleanCkpt
		if workers != 2 {
			_, wantStream, wantCkpt = driveDist(t, cfg, workers)
		}
		for _, at := range intervals {
			t.Run(fmt.Sprintf("sigkill/workers=%d/interval=%d", workers, at), func(t *testing.T) {
				// SIGKILL is detected by pipe EOF, not by heartbeats, so
				// the default liveness deadline stays: race-instrumented
				// child processes can take tens of milliseconds to exec,
				// and a millisecond-scale heartbeat budget would misread
				// that cold start as death.
				s, stream, ckpt := driveDist(t, cfg, workers,
					withSupervisor(func(c *coord.Config) {
						c.MaxRestarts = 10
						c.Backoff = 2 * time.Millisecond
					}),
					WithWorkerProcesses(),
					procFaults(0, faultinject.ProcFault{Worker: workers - 1, Interval: at, Kind: faultinject.ProcKill}),
				)
				if stream != wantStream {
					t.Fatal("SIGKILL recovery broke bit-identity")
				}
				if !bytes.Equal(ckpt, wantCkpt) {
					t.Fatal("SIGKILL recovery broke checkpoint identity")
				}
				if s.WorkerRestarts() == 0 {
					t.Fatal("SIGKILL caused no restart")
				}
			})
		}
	}
}

// TestDistributedRefusesNestedWorkerProcesses: a process that was
// re-exec'ed as a worker but whose main opens a distributed session
// with WithWorkerProcesses() instead of calling MaybeWorker must not
// re-exec again. The factory refuses with ErrProtocol before starting
// any process, so the first Step fails. (Were the guard broken, the
// child would be this test binary, whose TestMain makes it an ordinary
// worker, so the run would succeed and the test fail — never recurse.)
func TestDistributedRefusesNestedWorkerProcesses(t *testing.T) {
	t.Setenv(coord.WorkerEnv, "1")
	s, err := OpenDistributed(distTestConfig(3, 1), 1, WithWorkerProcesses())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Step(context.Background()); !errors.Is(err, coord.ErrProtocol) {
		t.Fatalf("Step in a worker child: %v, want ErrProtocol", err)
	}
}
