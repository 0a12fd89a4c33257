package dtmsvs

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"dtmsvs/internal/cluster"
	"dtmsvs/internal/sim"
)

// sessionTestConfig exercises churn, regrouping and every parallel
// stage while staying fast enough to run many times.
func sessionTestConfig(seed int64, workers int) Config {
	return Config{
		Seed:             seed,
		NumUsers:         24,
		NumBS:            2,
		NumIntervals:     4,
		TicksPerInterval: 6,
		WarmupIntervals:  1,
		RegroupEvery:     2,
		CompressorEpochs: 2,
		AgentEpisodes:    10,
		ChurnPerInterval: 0.1,
		PrefetchDepth:    -1,
		Parallelism:      workers,
	}
}

// simReference drives the monolithic engine's step methods directly —
// warm-up, training and group construction, then every interval — the
// sequence a session must reproduce.
func simReference(t *testing.T, cfg Config) *Trace {
	t.Helper()
	eng, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	d := cfg.Defaulted()
	for w := 0; w < d.WarmupIntervals; w++ {
		if err := eng.WarmupIntervalContext(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Train(); err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildGroupsContext(ctx); err != nil {
		t.Fatal(err)
	}
	tr := sim.NewTrace()
	for i := 0; i < d.NumIntervals; i++ {
		if err := eng.RunIntervalContext(ctx, i, tr); err != nil {
			t.Fatal(err)
		}
	}
	eng.FinishTrace(tr)
	return tr
}

// clusterReference is simReference for the cluster engine.
func clusterReference(t *testing.T, cfg ClusterConfig) *ClusterTrace {
	t.Helper()
	eng, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	d := eng.Config().Sim
	for w := 0; w < d.WarmupIntervals; w++ {
		if err := eng.WarmupStep(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.TrainAndBuild(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.NumIntervals; i++ {
		if _, err := eng.StepInterval(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	return eng.Finish()
}

// TestSessionMatchesRun is the step-equivalence guarantee: stepping a
// session by hand produces the exact trace that driving the engine's
// own step methods in sequence produces.
func TestSessionMatchesRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := sessionTestConfig(11, workers)
		want := simReference(t, cfg)
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		steps := 0
		for !s.Done() {
			rep, serr := s.Step(context.Background())
			if serr != nil {
				t.Fatalf("workers %d step %d: %v", workers, steps, serr)
			}
			if rep.Interval != steps {
				t.Fatalf("workers %d: report interval %d at step %d", workers, rep.Interval, steps)
			}
			steps++
		}
		if steps != cfg.NumIntervals {
			t.Fatalf("workers %d: %d steps for %d intervals", workers, steps, cfg.NumIntervals)
		}
		if s.Interval() != cfg.NumIntervals {
			t.Fatalf("workers %d: Interval() = %d", workers, s.Interval())
		}
		got := s.Trace()
		if !reflect.DeepEqual(got.Records, want.Records) {
			t.Fatalf("workers %d: session records diverged from the engine", workers)
		}
		if got.K != want.K || got.Silhouette != want.Silhouette ||
			got.CacheHitRate != want.CacheHitRate || got.ChurnedUsers != want.ChurnedUsers {
			t.Fatalf("workers %d: run stats diverged", workers)
		}
		if !reflect.DeepEqual(got.SwipeByGroup, want.SwipeByGroup) {
			t.Fatalf("workers %d: swipe distributions diverged", workers)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestClusterSessionMatchesRunCluster is the cluster-side
// step-equivalence guarantee: the session path matches the cluster
// engine's step methods driven in sequence.
func TestClusterSessionMatchesRunCluster(t *testing.T) {
	cfg := ClusterConfig{Sim: sessionTestConfig(7, 4)}
	want := clusterReference(t, cfg)
	got := mustClusterTrace(t, cfg)
	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Fatal("session records diverged from the engine")
	}
	if !reflect.DeepEqual(got.Cells, want.Cells) {
		t.Fatal("cell stats diverged")
	}
	if got.Handovers != want.Handovers || got.ChurnedUsers != want.ChurnedUsers ||
		got.CacheHitRate != want.CacheHitRate {
		t.Fatal("run stats diverged")
	}
}

// settledGoroutines polls until the goroutine count is back to at
// most base, and returns the last count seen.
func settledGoroutines(base int) int {
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSessionHoldsNoIdleGoroutines: engines and sinks fan work out
// only for the duration of a call, so nothing stays parked between
// steps or after Close. Parallelism 4 gives every engine a 4-wide
// pool, and 60 agent episodes fill the replay buffer, so the DDQN
// minibatch GEMMs run.
func TestSessionHoldsNoIdleGoroutines(t *testing.T) {
	cfg := sessionTestConfig(5, 4)
	cfg.AgentEpisodes = 60
	for _, tc := range []struct {
		name string
		open func(opts ...SessionOption) (Session, error)
	}{
		{"sim", func(opts ...SessionOption) (Session, error) { return Open(cfg, opts...) }},
		{"cluster", func(opts ...SessionOption) (Session, error) {
			return OpenCluster(ClusterConfig{Sim: cfg}, opts...)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			sink, err := NewBinarySink(io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			s, err := tc.open(WithSink(sink))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Step(context.Background()); err != nil {
				t.Fatal(err)
			}
			if n := settledGoroutines(base); n > base {
				t.Fatalf("%d goroutines after the first step, %d before Open", n, base)
			}
			for !s.Done() {
				if _, err := s.Step(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
			if n := settledGoroutines(base); n > base {
				t.Fatalf("%d goroutines after Close, %d before Open", n, base)
			}
		})
	}
	t.Run("distributed", func(t *testing.T) {
		base := runtime.NumGoroutine()
		s, err := OpenDistributed(distTestConfig(5, 4), 2)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for !s.Done() {
			if _, err := s.Step(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if n := settledGoroutines(base); n > base {
			t.Fatalf("%d goroutines after Close, %d before Open", n, base)
		}
	})
}

// TestSessionSinkAndObservers: the sink receives exactly the trace's
// records (and then owns them — the session retains none), observers
// see every interval in order, progress counts to completion, and the
// AccuracyTracker matches the batch metrics.
func TestSessionSinkAndObservers(t *testing.T) {
	cfg := sessionTestConfig(3, 2)
	want := mustTrace(t, cfg)

	var sink BufferedSink
	var acc AccuracyTracker
	var seen []int
	var progress [][2]int
	s, err := Open(cfg,
		WithSink(&sink),
		WithObserver(func(rep IntervalReport) { seen = append(seen, rep.Interval) }),
		WithObserver(acc.Observe),
		WithProgress(func(done, total int) { progress = append(progress, [2]int{done, total}) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	for !s.Done() {
		if _, serr := s.Step(context.Background()); serr != nil {
			t.Fatal(serr)
		}
	}
	if len(sink.Records) != len(want.Records) {
		t.Fatalf("sink has %d records, want %d", len(sink.Records), len(want.Records))
	}
	for i, r := range sink.Records {
		if r.BS != -1 {
			t.Fatalf("monolithic record %d has BS %d", i, r.BS)
		}
		if r != want.Records[i] {
			t.Fatalf("sink record %d diverged", i)
		}
	}
	if len(s.Trace().Records) != 0 {
		t.Fatalf("session retained %d records despite sink", len(s.Trace().Records))
	}
	if s.Trace().K != want.K {
		t.Fatalf("stats-only trace K %d, want %d", s.Trace().K, want.K)
	}
	for i, iv := range seen {
		if iv != i {
			t.Fatalf("observer saw intervals %v", seen)
		}
	}
	if len(progress) != cfg.NumIntervals || progress[len(progress)-1] != [2]int{cfg.NumIntervals, cfg.NumIntervals} {
		t.Fatalf("progress %v", progress)
	}
	wantAcc, err := want.RadioAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	gotAcc, err := acc.RadioAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	if gotAcc != wantAcc {
		t.Fatalf("tracker accuracy %v, batch %v", gotAcc, wantAcc)
	}
	wantC, err := want.ComputeAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	gotC, err := acc.ComputeAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	if gotC != wantC {
		t.Fatalf("tracker compute accuracy %v, batch %v", gotC, wantC)
	}
}

// TestEmptyScenario: degenerate configs fail with the typed
// ErrEmptyScenario from Open and OpenCluster.
func TestEmptyScenario(t *testing.T) {
	noUsers := sessionTestConfig(1, 1)
	noUsers.NumUsers = 0
	noIntervals := sessionTestConfig(1, 1)
	noIntervals.NumIntervals = 0
	for name, cfg := range map[string]Config{"no users": noUsers, "no intervals": noIntervals} {
		if _, err := Open(cfg); !errors.Is(err, ErrEmptyScenario) {
			t.Fatalf("Open %s: want ErrEmptyScenario, got %v", name, err)
		}
		if _, err := OpenCluster(ClusterConfig{Sim: cfg}); !errors.Is(err, ErrEmptyScenario) {
			t.Fatalf("OpenCluster %s: want ErrEmptyScenario, got %v", name, err)
		}
	}
	// Negative counts stay plain config errors, and every empty-scenario
	// error still matches the broad config class.
	negative := sessionTestConfig(1, 1)
	negative.NumUsers = -1
	if _, err := Open(negative); err == nil || errors.Is(err, ErrEmptyScenario) {
		t.Fatalf("negative users: got %v", err)
	}
	// A negative tick rate is refused when the session opens, not run
	// with wrong numbers.
	negative = sessionTestConfig(1, 1)
	negative.TicksPerInterval = -5
	if _, err := Open(negative); !errors.Is(err, sim.ErrConfig) {
		t.Fatalf("Open with negative ticks: want ErrConfig, got %v", err)
	}
	if _, err := OpenCluster(ClusterConfig{Sim: negative}); !errors.Is(err, sim.ErrConfig) {
		t.Fatalf("OpenCluster with negative ticks: want ErrConfig, got %v", err)
	}
}

// TestOpenRejectsWhatValidateRejects: a negative catalog or cache size
// and category weights that do not weigh the five categories fail
// Validate, so Open and OpenCluster refuse them with sim.ErrConfig
// before any component is built, not with the component's own error.
func TestOpenRejectsWhatValidateRejects(t *testing.T) {
	for name, mut := range map[string]func(*Config){
		"catalog-size":     func(c *Config) { c.CatalogSize = -5 },
		"cache-bytes":      func(c *Config) { c.CacheBytes = -1 },
		"category-count":   func(c *Config) { c.CategoryWeights = []float64{1, 2} },
		"category-weights": func(c *Config) { c.CategoryWeights = []float64{1, -1, 1, 1, 1} },
	} {
		cfg := sessionTestConfig(1, 1)
		mut(&cfg)
		if err := cfg.Validate(); !errors.Is(err, sim.ErrConfig) {
			t.Errorf("Validate with %s: want sim.ErrConfig, got %v", name, err)
		}
		if _, err := Open(cfg); !errors.Is(err, sim.ErrConfig) {
			t.Errorf("Open with %s: want sim.ErrConfig, got %v", name, err)
		}
		if _, err := OpenCluster(ClusterConfig{Sim: cfg}); !errors.Is(err, sim.ErrConfig) {
			t.Errorf("OpenCluster with %s: want sim.ErrConfig, got %v", name, err)
		}
	}
}

// TestSessionDoneAndClosed: stepping past the end and after Close
// yields the typed sentinel errors.
func TestSessionDoneAndClosed(t *testing.T) {
	cfg := sessionTestConfig(5, 2)
	cfg.NumIntervals = 1
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, serr := s.Step(context.Background()); serr != nil {
		t.Fatal(serr)
	}
	if !s.Done() {
		t.Fatal("session not done after final interval")
	}
	if _, serr := s.Step(context.Background()); !errors.Is(serr, ErrSessionDone) {
		t.Fatalf("want ErrSessionDone, got %v", serr)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("double Close: want ErrSessionClosed, got %v", err)
	}
	if _, serr := s.Step(context.Background()); !errors.Is(serr, ErrSessionClosed) {
		t.Fatalf("want ErrSessionClosed, got %v", serr)
	}
	if cerr := s.Checkpoint(io.Discard); !errors.Is(cerr, ErrSessionClosed) {
		t.Fatalf("Checkpoint after Close: want ErrSessionClosed, got %v", cerr)
	}
}

// TestTraceRecordEncodings: the unified record type round-trips both
// schemas through NDJSON and renders the right CSV header per engine.
func TestTraceRecordEncodings(t *testing.T) {
	mono := TraceRecord{BS: -1, GroupIntervalRecord: GroupIntervalRecord{Interval: 2, GroupID: 1, Size: 9, ActualRBs: 3.25}}
	cell := TraceRecord{BS: 3, GroupIntervalRecord: GroupIntervalRecord{Interval: 1, GroupID: 0, Size: 4, ActualRBs: 1.5}}

	var buf bytes.Buffer
	sink := NewNDJSONSink(&buf)
	for _, r := range []TraceRecord{mono, cell} {
		if err := sink.WriteRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d NDJSON lines", len(lines))
	}
	if strings.Contains(lines[0], `"bs"`) {
		t.Fatalf("monolithic record leaked a bs field: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], `{"bs":3,`) {
		t.Fatalf("cluster record missing leading bs: %s", lines[1])
	}
	back, err := ReadTraceRecords(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0] != mono || back[1] != cell {
		t.Fatalf("NDJSON round trip diverged: %+v", back)
	}

	buf.Reset()
	csvSink := NewCSVSink(&buf)
	if err := csvSink.WriteRecord(cell); err != nil {
		t.Fatal(err)
	}
	if err := csvSink.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "bs,interval,group_id") {
		t.Fatalf("cluster CSV header: %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
	buf.Reset()
	csvSink = NewCSVSink(&buf)
	if err := csvSink.WriteRecord(mono); err != nil {
		t.Fatal(err)
	}
	if err := csvSink.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "interval,group_id") {
		t.Fatalf("monolithic CSV header: %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
}

// failingSink passes records through to an inner sink until a given
// record count, then errors — simulating a writer that dies mid-interval.
type failingSink struct {
	inner   TraceSink
	failAt  int
	written int
}

func (f *failingSink) WriteRecord(r TraceRecord) error {
	if f.written >= f.failAt {
		return errors.New("disk full")
	}
	f.written++
	return f.inner.WriteRecord(r)
}

func (f *failingSink) Flush() error { return f.inner.Flush() }

// TestSinkFailureKeepsWholeIntervalPrefix: when WriteRecord dies
// partway through an interval, neither the failing Step nor Close may
// flush the torn interval — the backing store keeps exactly the
// whole-interval prefix of the last successful flush.
func TestSinkFailureKeepsWholeIntervalPrefix(t *testing.T) {
	cfg := sessionTestConfig(9, 2)
	full, perInterval := ndjsonRun(t, func(opts ...SessionOption) (Session, error) {
		return Open(cfg, opts...)
	})
	if len(perInterval) < 2 || perInterval[1] < 2 {
		t.Fatalf("scenario too small to tear an interval: %v", perInterval)
	}
	// Fail on the second record of interval 1.
	failAt := perInterval[0] + 1
	var buf bytes.Buffer
	sink := &failingSink{inner: NewNDJSONSink(&buf), failAt: failAt}
	s, err := Open(cfg, WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	if _, serr := s.Step(context.Background()); serr != nil {
		t.Fatal(serr)
	}
	if _, serr := s.Step(context.Background()); serr == nil {
		t.Fatal("torn-interval step must fail")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := linePrefix(full, perInterval[0])
	if buf.String() != want {
		t.Fatalf("backing store holds %d bytes, want the %d-byte whole-interval prefix",
			buf.Len(), len(want))
	}
}

// failingFinish is a stepper whose final stamp fails, as a distributed
// run's does when the workers' final stats cannot be fetched.
type failingFinish struct {
	stepper
	err error
}

func (f failingFinish) finish() error { return f.err }

// TestFinishErrorFailsSession: an engine that cannot assemble its
// run-level trace on the final interval fails that Step and the
// session with the cause, instead of reporting Done with an empty
// summary. The interval itself completed, so its records are on the
// sink and counted.
func TestFinishErrorFailsSession(t *testing.T) {
	cfg := sessionTestConfig(9, 1)
	full, _ := ndjsonRun(t, func(opts ...SessionOption) (Session, error) {
		return Open(cfg, opts...)
	})
	var buf bytes.Buffer
	s, err := Open(cfg, WithSink(NewNDJSONSink(&buf)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	boom := errors.New("final stats unavailable")
	s.eng = failingFinish{stepper: s.eng, err: boom}
	ctx := context.Background()
	for i := 0; i < cfg.NumIntervals-1; i++ {
		if _, serr := s.Step(ctx); serr != nil {
			t.Fatal(serr)
		}
	}
	if _, serr := s.Step(ctx); !errors.Is(serr, boom) {
		t.Fatalf("final step: %v, want the finish error", serr)
	}
	if s.Done() {
		t.Fatal("session reports Done after its final stamp failed")
	}
	if _, serr := s.Step(ctx); !errors.Is(serr, boom) {
		t.Fatalf("step after failure: %v, want the latched finish error", serr)
	}
	if cerr := s.Checkpoint(io.Discard); !errors.Is(cerr, boom) {
		t.Fatalf("checkpoint of the failed session: %v", cerr)
	}
	if s.Interval() != cfg.NumIntervals || buf.String() != full {
		t.Fatalf("final interval's records lost: interval %d, %d of %d stream bytes",
			s.Interval(), buf.Len(), len(full))
	}
}
