package coord

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"dtmsvs/internal/cluster"
	"dtmsvs/internal/faultinject"
	"dtmsvs/internal/sim"
)

// testClusterConfig mirrors the cluster package's unit scenario:
// small enough to run many full distributed pipelines in a test,
// busy enough to exercise churn, regrouping and cross-worker
// handover every interval.
func testClusterConfig(seed int64, parallelism int) cluster.Config {
	return cluster.Config{Sim: sim.Config{
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
		Parallelism:      parallelism,
	}}
}

// fastFailure shrinks every robustness timescale so fault tests run
// in milliseconds: beats every 10ms, dead after 5 missed, hangs last
// 150ms, restarts back off from 2ms, and a boundary fails after 10s —
// far above any healthy boundary of testClusterConfig under -race, so
// a recovery that leaves a worker idle fails in seconds.
func fastFailure(cfg *Config) {
	cfg.Heartbeat = 10 * time.Millisecond
	cfg.HeartbeatMiss = 5
	cfg.HangDuration = 150 * time.Millisecond
	cfg.Backoff = 2 * time.Millisecond
	cfg.StepTimeout = 10 * time.Second
}

// supRun is everything one supervised run produced.
type supRun struct {
	records   []cluster.Record
	cells     []cluster.CellStats
	handovers int
	churned   int
	hits      int
	misses    int
	ckpts     [][]byte
	restarts  int
	hbMisses  int
}

func driveSupervisor(t *testing.T, cfg Config) *supRun {
	t.Helper()
	out, err := driveSupervisorErr(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// driveSupervisorErr runs the full scenario through a supervisor —
// the same boundary sequence the session layer drives — and collects
// the merged outputs plus a final checkpoint.
func driveSupervisorErr(cfg Config) (*supRun, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	ctx := context.Background()
	d := cfg.Cluster.Defaulted()
	out := &supRun{}
	for i := 0; i < d.Sim.WarmupIntervals; i++ {
		if err := s.WarmupStep(ctx); err != nil {
			return nil, err
		}
	}
	if err := s.TrainAndBuild(ctx); err != nil {
		return nil, err
	}
	for n := 0; n < d.Sim.NumIntervals; n++ {
		recs, err := s.StepInterval(ctx, n)
		if err != nil {
			return nil, err
		}
		out.records = append(out.records, recs...)
	}
	if out.cells, out.hits, out.misses, err = s.Stats(); err != nil {
		return nil, err
	}
	out.handovers, out.churned = s.Handovers(), s.Churned()
	if out.ckpts, err = s.CheckpointBlobs(ctx); err != nil {
		return nil, err
	}
	out.restarts, out.hbMisses = s.Restarts(), s.HeartbeatMisses()
	return out, nil
}

// runEngine runs cfg through the single-process cluster engine, driven
// the way a session drives it — warm-up boundaries, training and the
// first group construction, then every scheduling interval — and
// returns the merged trace: the reference a supervised run must match.
func runEngine(t *testing.T, cfg cluster.Config) *cluster.Trace {
	t.Helper()
	e, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	d := e.Config().Sim
	for w := 0; w < d.WarmupIntervals; w++ {
		if err := e.WarmupStep(ctx); err != nil {
			t.Fatalf("warm-up %d: %v", w, err)
		}
	}
	if err := e.TrainAndBuild(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.NumIntervals; i++ {
		if _, err := e.StepInterval(ctx, i); err != nil {
			t.Fatalf("interval %d: %v", i, err)
		}
	}
	return e.Finish()
}

// assertMatchesEngine compares a supervised run against the
// single-process cluster engine at the same seed — the package's
// bit-identity contract.
func assertMatchesEngine(t *testing.T, got *supRun, want *cluster.Trace, label string) {
	t.Helper()
	if len(got.records) == 0 {
		t.Fatalf("%s: empty distributed trace", label)
	}
	if !reflect.DeepEqual(got.records, want.Records) {
		t.Fatalf("%s: records diverged (%d vs %d rows)", label, len(got.records), len(want.Records))
	}
	if !reflect.DeepEqual(got.cells, want.Cells) {
		t.Fatalf("%s: cell stats diverged:\n got %+v\nwant %+v", label, got.cells, want.Cells)
	}
	if got.handovers != want.Handovers {
		t.Fatalf("%s: handovers %d want %d", label, got.handovers, want.Handovers)
	}
	if got.churned != want.ChurnedUsers {
		t.Fatalf("%s: churned %d want %d", label, got.churned, want.ChurnedUsers)
	}
	hitRate := 0.0
	if total := got.hits + got.misses; total > 0 {
		hitRate = float64(got.hits) / float64(total)
	}
	if hitRate != want.CacheHitRate {
		t.Fatalf("%s: cache hit rate %v want %v", label, hitRate, want.CacheHitRate)
	}
}

// TestSupervisorBitIdentical is the tentpole contract: the merged
// distributed trace is bit-identical to the single-process cluster
// engine for every worker count and intra-worker parallelism.
func TestSupervisorBitIdentical(t *testing.T) {
	const seed = 3
	want := runEngine(t, testClusterConfig(seed, 1))
	for _, workers := range []int{1, 2, 4} {
		for _, par := range []int{1, 4} {
			got := driveSupervisor(t, Config{Cluster: testClusterConfig(seed, par), Workers: workers})
			label := "workers=" + itoa(workers) + " par=" + itoa(par)
			assertMatchesEngine(t, got, want, label)
			if got.restarts != 0 || got.hbMisses != 0 {
				t.Fatalf("%s: %d restarts, %d heartbeat misses in a healthy run", label, got.restarts, got.hbMisses)
			}
		}
	}
}

func itoa(n int) string { return string(rune('0' + n)) }

// TestSupervisorFaultRecovery is the chaos contract: kill, hang and
// garbage faults each cost a restart, the lost boundary replays from
// the acked checkpoint, and the final trace AND final checkpoint stay
// byte-identical to the unfaulted distributed run.
func TestSupervisorFaultRecovery(t *testing.T) {
	const seed = 97
	base := Config{Cluster: testClusterConfig(seed, 2), Workers: 2}
	clean := driveSupervisor(t, base)
	want := runEngine(t, testClusterConfig(seed, 1))
	assertMatchesEngine(t, clean, want, "clean distributed")

	faulted := base
	fastFailure(&faulted)
	faulted.Faults = []faultinject.ProcFault{
		{Worker: 0, Interval: 1, Kind: faultinject.ProcKill},
		{Worker: 1, Interval: 2, Kind: faultinject.ProcHang},
		{Worker: 0, Interval: 3, Kind: faultinject.ProcGarbage},
	}
	got := driveSupervisor(t, faulted)
	assertMatchesEngine(t, got, want, "faulted distributed")
	if got.restarts < 3 {
		t.Fatalf("restarts %d, want at least one per fault", got.restarts)
	}
	if got.hbMisses < 1 {
		t.Fatalf("hang fault never tripped the heartbeat deadline (misses %d)", got.hbMisses)
	}
	if len(got.ckpts) != len(clean.ckpts) {
		t.Fatalf("checkpoint count %d want %d", len(got.ckpts), len(clean.ckpts))
	}
	for i := range got.ckpts {
		if !bytes.Equal(got.ckpts[i], clean.ckpts[i]) {
			t.Fatalf("worker %d final checkpoint diverged after recovery", i)
		}
	}
}

// TestSupervisorRestartBudget: with restarts forbidden, the first
// worker loss is ErrWorkerFailed.
func TestSupervisorRestartBudget(t *testing.T) {
	cfg := Config{Cluster: testClusterConfig(5, 1), Workers: 2, MaxRestarts: -1}
	fastFailure(&cfg)
	cfg.Faults = []faultinject.ProcFault{{Worker: 1, Interval: 0, Kind: faultinject.ProcKill}}
	_, err := driveSupervisorErr(cfg)
	if !errors.Is(err, ErrWorkerFailed) {
		t.Fatalf("exhausted budget: %v", err)
	}
}

// TestSupervisorResume: CheckpointBlobs mid-run seed a fresh
// supervisor that continues the scenario — records, stats and the
// final checkpoint all byte-identical to the uninterrupted run.
func TestSupervisorResume(t *testing.T) {
	const seed = 41
	cfg := Config{Cluster: testClusterConfig(seed, 2), Workers: 2}
	full := driveSupervisor(t, cfg)
	d := cfg.Cluster.Defaulted()

	ctx := context.Background()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.Sim.WarmupIntervals; i++ {
		if err := a.WarmupStep(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.TrainAndBuild(ctx); err != nil {
		t.Fatal(err)
	}
	var head []cluster.Record
	for n := 0; n < 2; n++ {
		recs, err := a.StepInterval(ctx, n)
		if err != nil {
			t.Fatal(err)
		}
		head = append(head, recs...)
	}
	blobs, err := a.CheckpointBlobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.SetResume(blobs); err != nil {
		t.Fatal(err)
	}
	tail := append([]cluster.Record(nil), head...)
	for n := 2; n < d.Sim.NumIntervals; n++ {
		recs, err := b.StepInterval(ctx, n)
		if err != nil {
			t.Fatal(err)
		}
		tail = append(tail, recs...)
	}
	if !reflect.DeepEqual(tail, full.records) {
		t.Fatalf("resumed records diverged (%d vs %d rows)", len(tail), len(full.records))
	}
	cells, hits, misses, err := b.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cells, full.cells) || hits != full.hits || misses != full.misses {
		t.Fatal("resumed stats diverged")
	}
	final, err := b.CheckpointBlobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range final {
		if !bytes.Equal(final[i], full.ckpts[i]) {
			t.Fatalf("worker %d resumed final checkpoint diverged", i)
		}
	}
	if b.Handovers() != full.handovers || b.Churned() != full.churned {
		t.Fatalf("resumed counters: handovers %d/%d churned %d/%d",
			b.Handovers(), full.handovers, b.Churned(), full.churned)
	}
}
