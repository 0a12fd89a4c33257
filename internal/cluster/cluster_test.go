package cluster

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"dtmsvs/internal/sim"
)

// testSimConfig is small enough to run the full per-cell pipeline many
// times in a unit test while exercising churn, regrouping, warm-up
// handover and every parallel stage.
func testSimConfig(seed int64, workers int) sim.Config {
	return sim.Config{
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
	}
}

func runCluster(t *testing.T, seed int64, workers int) *Trace {
	t.Helper()
	return runConfig(t, Config{Sim: testSimConfig(seed, workers)})
}

// runConfig builds an engine over cfg and runs it to completion.
func runConfig(tb testing.TB, cfg Config) *Trace {
	tb.Helper()
	e, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return runEngine(tb, e)
}

// runEngine drives e through the whole scenario the way a session
// does — warm-up boundaries, training and the first group
// construction, then every scheduling interval — and returns the
// merged trace, with the rows each interval returned.
func runEngine(tb testing.TB, e *Engine) *Trace {
	tb.Helper()
	ctx := context.Background()
	for w := 0; w < e.cfg.Sim.WarmupIntervals; w++ {
		if err := e.WarmupStep(ctx); err != nil {
			tb.Fatalf("warm-up %d: %v", w, err)
		}
	}
	if err := e.TrainAndBuild(ctx); err != nil {
		tb.Fatal(err)
	}
	var recs []Record
	for i := 0; i < e.cfg.Sim.NumIntervals; i++ {
		out, err := e.StepInterval(ctx, i)
		if err != nil {
			tb.Fatalf("interval %d: %v", i, err)
		}
		recs = append(recs, out...)
	}
	tr := e.Finish()
	tr.Records = recs
	return tr
}

// TestRunDeterministic is the cluster engine's core guarantee: the
// merged trace is bit-identical for every worker count — parallelism
// is a scheduling decision, never a semantic one.
func TestRunDeterministic(t *testing.T) {
	for _, seed := range []int64{3, 97} {
		base := runCluster(t, seed, 1)
		if len(base.Records) == 0 {
			t.Fatalf("seed %d: empty trace", seed)
		}
		for _, workers := range []int{4, 8} {
			tr := runCluster(t, seed, workers)
			if !reflect.DeepEqual(tr.Records, base.Records) {
				t.Fatalf("seed %d workers %d: records diverged", seed, workers)
			}
			if !reflect.DeepEqual(tr.Cells, base.Cells) {
				t.Fatalf("seed %d workers %d: cell stats diverged:\n got %+v\nwant %+v",
					seed, workers, tr.Cells, base.Cells)
			}
			if tr.Handovers != base.Handovers || tr.ChurnedUsers != base.ChurnedUsers ||
				tr.CacheHitRate != base.CacheHitRate {
				t.Fatalf("seed %d workers %d: run stats diverged", seed, workers)
			}
		}
	}
}

// TestHandoverConservesUsers runs a churn-heavy scenario and checks
// that after every interval's migration pass each user twin lives in
// exactly one cell (the engine also enforces this invariant
// internally and fails the run on violation).
func TestHandoverConservesUsers(t *testing.T) {
	cfg := Config{Sim: testSimConfig(11, 0)}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runEngine(t, e)
	if e.Handovers() == 0 {
		t.Fatal("scenario produced no handovers; conservation untested")
	}
	var ids []int
	for _, c := range e.cells {
		ids = append(ids, c.eng.UserIDs()...)
	}
	if len(ids) != cfg.Sim.NumUsers {
		t.Fatalf("%d twins across cells, want %d", len(ids), cfg.Sim.NumUsers)
	}
	sort.Ints(ids)
	for i, id := range ids {
		if id != i {
			t.Fatalf("twin set corrupted at %d: got id %d (lost or duplicated twin)", i, id)
		}
	}
	// The owner map must agree with where each twin actually lives.
	for id, cell := range e.owner {
		if e.cells[cell].eng.ServingBSOf(id) < 0 {
			t.Fatalf("owner map says user %d is in cell %d, but the cell does not hold it", id, cell)
		}
	}
}

// TestGroupsCoverEveryUser: the cells' multicast groups partition the
// population at every interval, with and without churn — the rows of
// one interval, over all cells, sum to NumUsers — while twins hand
// over between cells.
func TestGroupsCoverEveryUser(t *testing.T) {
	for _, churn := range []float64{0, 0.05} {
		cfg := testSimConfig(13, 0)
		cfg.NumUsers, cfg.NumIntervals = 120, 8
		cfg.ChurnPerInterval = churn
		tr := runConfig(t, Config{Sim: cfg})
		covered := make([]int, cfg.NumIntervals)
		for _, r := range tr.Records {
			if r.Size <= 0 {
				t.Fatalf("churn %v: empty row %+v", churn, r)
			}
			covered[r.Interval] += r.Size
		}
		for i, n := range covered {
			if n != cfg.NumUsers {
				t.Fatalf("churn %v interval %d: groups cover %d of %d users", churn, i, n, cfg.NumUsers)
			}
		}
		if tr.Handovers == 0 || (churn > 0) != (tr.ChurnedUsers > 0) {
			t.Fatalf("churn %v: %d handovers, %d churned; scenario too quiet", churn, tr.Handovers, tr.ChurnedUsers)
		}
	}
}

// TestRecordsSortedAndTagged checks the merge discipline: records
// sorted by (interval, cell, group), every cell tag within range.
func TestRecordsSortedAndTagged(t *testing.T) {
	tr := runCluster(t, 5, 0)
	for i, r := range tr.Records {
		if r.BS < 0 || r.BS >= 4 {
			t.Fatalf("record %d: bs %d out of range", i, r.BS)
		}
		if i == 0 {
			continue
		}
		p := tr.Records[i-1]
		if r.Interval < p.Interval ||
			(r.Interval == p.Interval && r.BS < p.BS) ||
			(r.Interval == p.Interval && r.BS == p.BS && r.GroupID <= p.GroupID) {
			t.Fatalf("records out of order at %d: %+v after %+v", i, r, p)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Sim: testSimConfig(1, 0)}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.Sim.NumUsers = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid sim config must be rejected")
	}
	if _, err := New(bad); err == nil {
		t.Fatal("New must reject invalid config")
	}
}
