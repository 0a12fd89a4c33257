package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"dtmsvs/internal/grouping"
	"dtmsvs/internal/kmeans"
)

// fastConfig is a small, quick scenario for unit tests.
func fastConfig(seed int64) Config {
	return Config{
		Seed:             seed,
		NumUsers:         24,
		NumBS:            4,
		CatalogSize:      120,
		NumIntervals:     4,
		TicksPerInterval: 10,
		WarmupIntervals:  1,
		CompressorEpochs: 3,
		AgentEpisodes:    30,
		Grouping:         grouping.Config{WindowSteps: 8, PosScale: 2000, KMin: 2, KMax: 4, UseCNN: true},
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Config)
	}{
		{"users", func(c *Config) { c.NumUsers = 0 }},
		{"bs", func(c *Config) { c.NumBS = -1 }},
		{"intervals", func(c *Config) { c.NumIntervals = 0 }},
		{"fixedk", func(c *Config) { c.FixedK = 99 }},
		{"ticks", func(c *Config) { c.TicksPerInterval = -5 }},
		{"warmup", func(c *Config) { c.WarmupIntervals = -1 }},
		{"nominal_rbs", func(c *Config) { c.NominalRBsPerGroup = -1 }},
		{"interval_s", func(c *Config) { c.IntervalS = -300 }},
		{"swipe_gap", func(c *Config) { c.SwipeGapS = -0.5 }},
		{"topn", func(c *Config) { c.TopNRecommend = -1 }},
		{"agent_episodes", func(c *Config) { c.AgentEpisodes = -1 }},
		{"compressor_epochs", func(c *Config) { c.CompressorEpochs = -1 }},
		{"regroup_every", func(c *Config) { c.RegroupEvery = -1 }},
		{"catalog_size", func(c *Config) { c.CatalogSize = -5 }},
		{"cache_bytes", func(c *Config) { c.CacheBytes = -1 }},
		{"category_weights", func(c *Config) { c.CategoryWeights = []float64{1, 2} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := fastConfig(1)
			tt.mut(&cfg)
			if err := cfg.Validate(); !errors.Is(err, ErrConfig) {
				t.Fatalf("want ErrConfig, got %v", err)
			}
			if _, err := New(cfg); !errors.Is(err, ErrConfig) {
				t.Fatalf("New: want ErrConfig, got %v", err)
			}
		})
	}
	if err := fastConfig(1).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := fastConfig(1)
	cfg.NumUsers = 0
	if _, err := New(cfg); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
}

func runFast(t *testing.T, cfg Config) *Trace {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return runAll(t, s)
}

// runAll drives s through the whole scenario the way a session does —
// warm-up intervals, training and the first group construction, then
// every scheduling interval — and returns the stamped trace.
func runAll(tb testing.TB, s *Simulation) *Trace {
	tb.Helper()
	ctx := context.Background()
	for w := 0; w < s.cfg.WarmupIntervals; w++ {
		if err := s.WarmupIntervalContext(ctx); err != nil {
			tb.Fatalf("warm-up %d: %v", w, err)
		}
	}
	if err := s.Train(); err != nil {
		tb.Fatal(err)
	}
	if err := s.BuildGroupsContext(ctx); err != nil {
		tb.Fatal(err)
	}
	tr := NewTrace()
	for i := 0; i < s.cfg.NumIntervals; i++ {
		if err := s.RunIntervalContext(ctx, i, tr); err != nil {
			tb.Fatalf("interval %d: %v", i, err)
		}
	}
	s.FinishTrace(tr)
	return tr
}

// scored reports whether r's silhouette is already computed. A scored
// result no longer reads its codes; an unscored one fails its scan on
// the withheld codes, panics, and memoises nothing.
func scored(r *grouping.Result) (done bool) {
	codes := r.Codes
	r.Codes = nil
	defer func() {
		r.Codes = codes
		if recover() != nil {
			done = false
		}
	}()
	r.Silhouette()
	return true
}

// TestFinalSilhouetteScoredAtBuild checks the silhouette the trace
// reports and where it is computed, for every regroup cadence shape:
// none (a cadence past the run's end, and NumIntervals), the default
// (0 = 4, whose last regroup lands exactly at its cadence) and one
// that does not divide NumIntervals (3). The reported value must be
// the silhouette of the last construction's codes on a freshly staged
// set, bit for bit; the last construction must be scored in the step
// that built it, and every earlier one left unscored.
func TestFinalSilhouetteScoredAtBuild(t *testing.T) {
	const intervals = 8
	for _, tc := range []struct{ every, constructions int }{
		{intervals + 4, 1}, {0, 2}, {3, 3}, {4, 2}, {intervals, 1},
	} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("every%d/p%d", tc.every, workers), func(t *testing.T) {
				cfg := fastConfig(42)
				cfg.NumIntervals = intervals
				cfg.RegroupEvery = tc.every
				cfg.Parallelism = workers
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				for w := 0; w < s.cfg.WarmupIntervals; w++ {
					if err := s.WarmupIntervalContext(ctx); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.Train(); err != nil {
					t.Fatal(err)
				}
				// scoredAtBuild records, per construction, whether its
				// silhouette was already computed when the step ended.
				var scoredAtBuild []bool
				observe := func() {
					if s.lastResult == nil {
						t.Fatal("construction left no result")
					}
					scoredAtBuild = append(scoredAtBuild, scored(s.lastResult))
				}
				if err := s.BuildGroupsContext(ctx); err != nil {
					t.Fatal(err)
				}
				observe()
				tr := NewTrace()
				for i := 0; i < intervals; i++ {
					built := s.constructions
					if err := s.RunIntervalContext(ctx, i, tr); err != nil {
						t.Fatalf("interval %d: %v", i, err)
					}
					if s.constructions != built {
						observe()
					}
				}
				last := s.lastResult
				s.FinishTrace(tr)

				if len(scoredAtBuild) != tc.constructions {
					t.Fatalf("%d constructions, want %d", len(scoredAtBuild), tc.constructions)
				}
				if last.K < 2 {
					t.Fatalf("last construction K=%d: the silhouette scan never ran", last.K)
				}
				for c, done := range scoredAtBuild {
					if final := c == len(scoredAtBuild)-1; done != final {
						t.Fatalf("construction %d of %d scored at build: %v", c+1, len(scoredAtBuild), done)
					}
				}
				var staged kmeans.DistMatrix
				if err := staged.Stage(last.Codes); err != nil {
					t.Fatal(err)
				}
				want, err := kmeans.SilhouetteDists(&staged, last.Assignments(len(last.Codes)), last.K, nil)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(tr.Silhouette) != math.Float64bits(want) {
					t.Fatalf("trace silhouette %v, freshly staged over the last construction %v", tr.Silhouette, want)
				}
			})
		}
	}
}

func TestRunTraceInvariants(t *testing.T) {
	tr := runFast(t, fastConfig(42))
	if tr.K < 2 || tr.K > 4 {
		t.Fatalf("K=%d outside configured range", tr.K)
	}
	// Every interval contributes one record per group active then.
	if len(tr.Records) == 0 {
		t.Fatal("no records")
	}
	perInterval := map[int]int{}
	for _, r := range tr.Records {
		perInterval[r.Interval]++
		if r.Size <= 0 {
			t.Fatalf("record with empty group: %+v", r)
		}
		if r.PredictedRBs < 0 || r.ActualRBs < 0 {
			t.Fatalf("negative RBs: %+v", r)
		}
		if r.PredictedCycles < 0 || r.ActualCycles < 0 {
			t.Fatalf("negative cycles: %+v", r)
		}
		if r.PredictedBits <= 0 || r.ActualBits <= 0 {
			t.Fatalf("degenerate traffic: %+v", r)
		}
		if r.BitrateBps < 400e3 || r.BitrateBps > 2500e3 {
			t.Fatalf("bitrate %v outside ladder", r.BitrateBps)
		}
	}
	if len(perInterval) != 4 {
		t.Fatalf("records span %d intervals, want 4", len(perInterval))
	}
	// Group sizes per interval must sum to the user count.
	sizes := map[int]int{}
	for _, r := range tr.Records {
		if r.Interval == 0 {
			sizes[r.GroupID] = r.Size
		}
	}
	var total int
	for _, s := range sizes {
		total += s
	}
	if total != 24 {
		t.Fatalf("interval-0 group sizes sum to %d, want 24", total)
	}
	if len(tr.SwipeByGroup) == 0 {
		t.Fatal("no swipe distributions in trace")
	}
	acc, err := tr.RadioAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0 || acc > 1 {
		t.Fatalf("radio accuracy %v", acc)
	}
}

func TestRunDeterministic(t *testing.T) {
	t1 := runFast(t, fastConfig(7))
	t2 := runFast(t, fastConfig(7))
	if len(t1.Records) != len(t2.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(t1.Records), len(t2.Records))
	}
	for i := range t1.Records {
		if t1.Records[i] != t2.Records[i] {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, t1.Records[i], t2.Records[i])
		}
	}
	if t1.K != t2.K {
		t.Fatal("K differs across identical runs")
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	t1 := runFast(t, fastConfig(1))
	t2 := runFast(t, fastConfig(2))
	same := len(t1.Records) == len(t2.Records)
	if same {
		identical := true
		for i := range t1.Records {
			if t1.Records[i] != t2.Records[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestRunFixedKBaseline(t *testing.T) {
	cfg := fastConfig(11)
	cfg.FixedK = 3
	tr := runFast(t, cfg)
	if tr.K != 3 {
		t.Fatalf("fixed-K run ended with K=%d", tr.K)
	}
}

func TestRunNoCNNBaseline(t *testing.T) {
	cfg := fastConfig(13)
	cfg.Grouping.UseCNN = false
	tr := runFast(t, cfg)
	if len(tr.Records) == 0 {
		t.Fatal("no records")
	}
}

func TestGroupSeriesExtraction(t *testing.T) {
	tr := runFast(t, fastConfig(17))
	pred, actual := tr.GroupSeries(0)
	if len(pred) != len(actual) || len(pred) == 0 {
		t.Fatalf("series %d/%d", len(pred), len(actual))
	}
	pn, an := tr.GroupSeries(-1)
	if pn != nil || an != nil {
		t.Fatal("unknown group must give empty series")
	}
}

// The reproduction target: with the default-sized scenario the radio
// prediction accuracy must be in the neighborhood of the paper's
// 95.04 % (we accept ≥85 % for the reduced test-size scenario).
func TestRadioAccuracyBand(t *testing.T) {
	if testing.Short() {
		t.Skip("long scenario")
	}
	cfg := Config{Seed: 42, NumUsers: 100, NumBS: 4, NumIntervals: 24}
	tr := runFast(t, cfg)
	acc, err := tr.RadioAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Fatalf("radio accuracy %.4f below reproduction band (paper: 0.9504)", acc)
	}
	cacc, err := tr.ComputeAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	if cacc < 0.9 {
		t.Fatalf("compute accuracy %.4f below band", cacc)
	}
}

// Fig. 3(a) shape: in the News-heavy default scenario, the abstracted
// group swipe CDF for News must be dominated by the Game CDF (News
// watched longest, Game swiped fastest).
func TestSwipeDistributionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long scenario")
	}
	cfg := Config{Seed: 42, NumUsers: 100, NumBS: 4, NumIntervals: 12}
	tr := runFast(t, cfg)
	checked := 0
	for _, d := range tr.SwipeByGroup {
		eNews, e1 := d.ExpectedWatchFraction(1) // News
		eGame, e2 := d.ExpectedWatchFraction(5) // Game
		if e1 != nil || e2 != nil {
			t.Fatal(e1, e2)
		}
		if eNews <= eGame {
			t.Fatalf("news watch fraction %v not above game %v", eNews, eGame)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no groups to check")
	}
}

func TestRunWithChurn(t *testing.T) {
	cfg := fastConfig(31)
	cfg.ChurnPerInterval = 0.15
	cfg.RegroupEvery = 2
	tr := runFast(t, cfg)
	if tr.ChurnedUsers == 0 {
		t.Fatal("15% churn over 4 intervals × 24 users replaced nobody")
	}
	// Stability tracked across at least one regroup.
	if len(tr.StabilityByRegroup) == 0 {
		t.Fatal("no stability samples despite regroups")
	}
	for _, s := range tr.StabilityByRegroup {
		if s < 0 || s > 1 {
			t.Fatalf("stability %v outside [0,1]", s)
		}
	}
}

func TestChurnConfigValidation(t *testing.T) {
	cfg := fastConfig(32)
	cfg.ChurnPerInterval = 1.0
	if err := cfg.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
	cfg.ChurnPerInterval = -0.1
	if err := cfg.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
}

func TestRunOracleK(t *testing.T) {
	cfg := fastConfig(34)
	cfg.OracleK = true
	tr := runFast(t, cfg)
	if tr.K < 2 || tr.K > 4 {
		t.Fatalf("oracle K=%d outside [2,4]", tr.K)
	}
	cfg.FixedK = 2
	if err := cfg.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatalf("oracle+fixed must be rejected, got %v", err)
	}
}

func TestRunWithRBBudget(t *testing.T) {
	cfg := fastConfig(21)
	cfg.RBBudget = 6 // tight: forces admission cuts
	tr := runFast(t, cfg)
	perInterval := map[int]int{}
	for _, r := range tr.Records {
		if r.AllocatedRBs < 0 {
			t.Fatalf("negative grant: %+v", r)
		}
		perInterval[r.Interval] += r.AllocatedRBs
	}
	for iv, total := range perInterval {
		if total > 6 {
			t.Fatalf("interval %d allocated %d > budget 6", iv, total)
		}
	}
}

func TestRunBudgetValidation(t *testing.T) {
	cfg := fastConfig(22)
	cfg.RBBudget = -1
	if err := cfg.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
}

// Combined modes: churn and an admission budget in one run must hold
// all invariants together.
func TestRunCombinedModes(t *testing.T) {
	cfg := fastConfig(36)
	cfg.ChurnPerInterval = 0.1
	cfg.RBBudget = 12
	cfg.RegroupEvery = 2
	tr := runFast(t, cfg)
	perInterval := map[int]int{}
	for _, r := range tr.Records {
		perInterval[r.Interval] += r.AllocatedRBs
		if r.Size <= 0 || r.PredictedRBs < 0 || r.ActualRBs < 0 {
			t.Fatalf("bad record %+v", r)
		}
	}
	for iv, total := range perInterval {
		if total > 12 {
			t.Fatalf("interval %d allocated %d > budget", iv, total)
		}
	}
	if _, err := tr.RadioAccuracy(); err != nil {
		t.Fatal(err)
	}
}
