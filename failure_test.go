package dtmsvs

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"testing"

	"dtmsvs/internal/vecmath"
)

// chaosConfig is clusterTestConfig plus one injected fault: cell 1
// dies at the start of interval 1 and comes back at interval 3, so the
// scenario covers failure, two degraded intervals, evacuation, and a
// revived cell serving again.
func chaosConfig(seed int64, workers int) ClusterConfig {
	cfg := clusterTestConfig(seed, workers)
	cfg.Faults = []CellFault{{Cell: 1, FailAt: 1, ReviveAt: 3}}
	return cfg
}

// TestClusterDegradedDeterministic is the degraded-mode acceptance
// gate: with a cell failing mid-run and reviving later, the trace is
// bit-identical across {dispatched, forced-generic} kernels ×
// Parallelism {1,4,8}, twin conservation holds after evacuation, and
// the failure bookkeeping is exact.
func TestClusterDegradedDeterministic(t *testing.T) {
	defer vecmath.ForceGeneric(false)
	var base *ClusterTrace
	for _, kv := range kernelVariants {
		vecmath.ForceGeneric(kv.generic)
		for _, workers := range []int{1, 4, 8} {
			trace := mustClusterTrace(t, chaosConfig(21, workers))
			if base == nil {
				base = trace
				continue
			}
			if !reflect.DeepEqual(trace.Records, base.Records) {
				t.Fatalf("%s workers %d: degraded records diverged", kv.name, workers)
			}
			if !reflect.DeepEqual(trace.Cells, base.Cells) {
				t.Fatalf("%s workers %d: degraded cell stats diverged", kv.name, workers)
			}
		}
	}
	vecmath.ForceGeneric(false)
	if len(base.Records) == 0 {
		t.Fatal("empty degraded trace")
	}
	// Failure bookkeeping: one failure at interval 1, revival at
	// interval 3, so exactly intervals 1 and 2 ran degraded.
	if base.CellFailures != 1 || base.Revivals != 1 {
		t.Fatalf("failures %d revivals %d, want 1 and 1", base.CellFailures, base.Revivals)
	}
	if base.DegradedIntervals != 2 {
		t.Fatalf("degraded intervals %d, want 2", base.DegradedIntervals)
	}
	if base.EvacuatedTwins == 0 {
		t.Fatal("no twins evacuated off the failed cell")
	}
	if base.EvacuatedTwins != base.Cells[1].EvacuatedTwins {
		t.Fatalf("aggregate evacuations %d != cell 1's %d", base.EvacuatedTwins, base.Cells[1].EvacuatedTwins)
	}
	if base.Cells[1].Down {
		t.Fatal("cell 1 still marked down after revival")
	}
	// Conservation: every twin in exactly one cell after evacuation.
	var users int
	for _, c := range base.Cells {
		users += c.Users
	}
	if users != 32 {
		t.Fatalf("%d twins across cells after evacuation, want 32", users)
	}
	// No-records run on the failed cell during quarantine: interval 1
	// and 2 must carry no rows for cell 1.
	for _, r := range base.Records {
		if r.BS == 1 && (r.Interval == 1 || r.Interval == 2) {
			t.Fatalf("quarantined cell 1 produced a record at interval %d", r.Interval)
		}
	}
}

// TestClusterDegradeKeepsCellDown: a fault with no revival (ReviveAt
// -1) keeps its cell quarantined to the end, and the per-interval
// reports expose the degradation to observers.
func TestClusterDegradeKeepsCellDown(t *testing.T) {
	cfg := clusterTestConfig(21, 2)
	cfg.Faults = []CellFault{{Cell: 1, FailAt: 1, ReviveAt: -1}}
	s, err := OpenCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var downByStep []int
	for !s.Done() {
		rep, serr := s.Step(context.Background())
		if serr != nil {
			t.Fatal(serr)
		}
		downByStep = append(downByStep, rep.CellsDown)
		if rep.CellsDown > 0 && rep.EvacuatedTwins == 0 {
			t.Fatalf("interval %d degraded but reports zero evacuations", rep.Interval-1)
		}
	}
	trace := s.Trace()
	if want := []int{0, 1, 1, 1}; !reflect.DeepEqual(downByStep, want) {
		t.Fatalf("CellsDown per step = %v, want %v", downByStep, want)
	}
	if trace.Revivals != 0 {
		t.Fatalf("a fault without revival revived %d cells", trace.Revivals)
	}
	if !trace.Cells[1].Down {
		t.Fatal("cell 1 not marked down at end of run")
	}
	if trace.DegradedIntervals != 3 {
		t.Fatalf("degraded intervals %d, want 3", trace.DegradedIntervals)
	}
}

// TestClusterFailFastAborts: a schedule that takes every cell down
// leaves the run no coverage, so the last failure is a typed, latched
// error at its scheduled interval, and the failed session refuses
// checkpoints.
func TestClusterFailFastAborts(t *testing.T) {
	cfg := clusterTestConfig(21, 2)
	for c := 0; c < cfg.Sim.NumBS; c++ {
		cfg.Faults = append(cfg.Faults, CellFault{Cell: c, FailAt: 1, ReviveAt: -1})
	}
	s, err := OpenCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, serr := s.Step(context.Background()); serr != nil {
		t.Fatalf("interval before the faults: %v", serr)
	}
	_, serr := s.Step(context.Background())
	if !errors.Is(serr, ErrCellFailure) {
		t.Fatalf("want ErrCellFailure once every cell is down, got %v", serr)
	}
	if _, again := s.Step(context.Background()); !errors.Is(again, ErrCellFailure) {
		t.Fatalf("failure not latched: %v", again)
	}
	if cerr := s.Checkpoint(io.Discard); !errors.Is(cerr, ErrCellFailure) {
		t.Fatalf("checkpoint of failed session: want the cell failure, got %v", cerr)
	}
}

// TestClusterDefaultUnchangedByFaultFreeConfig: the failure model costs
// nothing until a fault fires — a fault-free run reports no failure
// statistics, and a run with a fault scheduled at interval 1 matches
// it row for row before that boundary and departs from it after.
func TestClusterDefaultUnchangedByFaultFreeConfig(t *testing.T) {
	ref := mustClusterTrace(t, clusterTestConfig(7, 2))
	if ref.CellFailures != 0 || ref.Revivals != 0 || ref.EvacuatedTwins != 0 || ref.DegradedIntervals != 0 {
		t.Fatalf("phantom failure stats: %+v", ref)
	}
	chaos := mustClusterTrace(t, chaosConfig(7, 2))
	before := func(recs []ClusterRecord) []ClusterRecord {
		n := 0
		for n < len(recs) && recs[n].Interval < 1 {
			n++
		}
		return recs[:n]
	}
	if pre := before(ref.Records); len(pre) == 0 || !reflect.DeepEqual(before(chaos.Records), pre) {
		t.Fatal("a fault scheduled at interval 1 changed interval 0")
	}
	if reflect.DeepEqual(chaos.Records, ref.Records) {
		t.Fatal("the scheduled fault left the trace unchanged")
	}
}

// TestClusterFaultConfigValidation: malformed fault schedules are
// rejected at Open time with ErrConfig.
func TestClusterFaultConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault CellFault
	}{
		{"cell out of range", CellFault{Cell: 9, FailAt: 1}},
		{"negative cell", CellFault{Cell: -1, FailAt: 1}},
		{"failAt past end", CellFault{Cell: 1, FailAt: 99}},
		{"reviveAt not after failAt", CellFault{Cell: 1, FailAt: 2, ReviveAt: 2}},
		{"reviveAt past end", CellFault{Cell: 1, FailAt: 1, ReviveAt: 99}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := clusterTestConfig(3, 1)
			cfg.Faults = []CellFault{tc.fault}
			if _, err := OpenCluster(cfg); err == nil {
				t.Fatal("invalid fault accepted")
			}
		})
	}
	t.Run("duplicate cell", func(t *testing.T) {
		cfg := clusterTestConfig(3, 1)
		cfg.Faults = []CellFault{{Cell: 1, FailAt: 1}, {Cell: 1, FailAt: 2}}
		if _, err := OpenCluster(cfg); err == nil {
			t.Fatal("two faults on one cell accepted")
		}
	})
}

// TestClusterDegradedCheckpointResume: checkpoint/resume while
// degraded is exact — for every boundary k, including the boundaries
// where cell 1 is quarantined, the resumed run's trace suffix and
// final checkpoint are bit-identical to the uninterrupted run's.
func TestClusterDegradedCheckpointResume(t *testing.T) {
	t.Run("cluster", func(t *testing.T) {
		cfg := chaosConfig(23, 4)
		open := func(opts ...SessionOption) (Session, error) { return OpenCluster(cfg, opts...) }
		full, perInterval, finalCkpt := referenceRun(t, open)
		for k := 0; k <= len(perInterval); k++ {
			var pre bytes.Buffer
			s, err := open(WithSink(NewNDJSONSink(&pre)))
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < k; step++ {
				if _, serr := s.Step(context.Background()); serr != nil {
					t.Fatalf("boundary %d step %d: %v", k, step, serr)
				}
			}
			var ckpt bytes.Buffer
			if cerr := s.Checkpoint(&ckpt); cerr != nil {
				t.Fatalf("checkpoint at boundary %d: %v", k, cerr)
			}
			s.Close()

			var post bytes.Buffer
			rs, err := ResumeCluster(cfg, bytes.NewReader(ckpt.Bytes()), WithSink(NewNDJSONSink(&post)))
			if err != nil {
				t.Fatalf("resume at boundary %d: %v", k, err)
			}
			for !rs.Done() {
				if _, serr := rs.Step(context.Background()); serr != nil {
					t.Fatalf("resumed step at boundary %d: %v", k, serr)
				}
			}
			var reCkpt bytes.Buffer
			if cerr := rs.Checkpoint(&reCkpt); cerr != nil {
				t.Fatal(cerr)
			}
			rs.Close()
			if pre.String()+post.String() != full {
				t.Fatalf("boundary %d: degraded resume diverged from uninterrupted run", k)
			}
			if !bytes.Equal(reCkpt.Bytes(), finalCkpt) {
				t.Fatalf("boundary %d: final checkpoint of degraded resume diverged", k)
			}
		}
	})
}

// TestClusterResumePolicyMismatch: the fault schedule is the failure
// policy, and it shapes the engine's future, so a checkpoint taken
// under one schedule cannot be resumed under another — the header
// fingerprint covers the schedule, and a silent switch would fork the
// trace.
func TestClusterResumePolicyMismatch(t *testing.T) {
	cfg := chaosConfig(23, 2)
	s, err := OpenCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Step past the failure so the checkpoint carries live quarantine
	// state, then capture it.
	for i := 0; i < 2; i++ {
		if _, serr := s.Step(context.Background()); serr != nil {
			t.Fatal(serr)
		}
	}
	var ckpt bytes.Buffer
	if cerr := s.Checkpoint(&ckpt); cerr != nil {
		t.Fatal(cerr)
	}
	s.Close()

	for _, revive := range []int{2, -1} {
		moved := chaosConfig(23, 2)
		moved.Faults[0].ReviveAt = revive
		if _, rerr := ResumeCluster(moved, bytes.NewReader(ckpt.Bytes())); !errors.Is(rerr, ErrCheckpointConfig) {
			t.Fatalf("resume with the revival moved to %d: want ErrCheckpointConfig, got %v", revive, rerr)
		}
	}
	rs, rerr := ResumeCluster(cfg, bytes.NewReader(ckpt.Bytes()))
	if rerr != nil {
		t.Fatalf("resume under the same schedule: %v", rerr)
	}
	rs.Close()
}
