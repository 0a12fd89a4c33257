package dtmsvs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"dtmsvs/internal/predict"
)

func smallConfig(seed int64) Config {
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
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(9)
	if cfg.Seed != 9 || cfg.NumUsers != 100 || cfg.NumBS != 4 || cfg.NumIntervals != 24 {
		t.Fatalf("default config %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDefaultedIdempotent: defaulting twice changes nothing, so every
// layer that defaults a configuration — the cluster engine, then each
// of its cells — runs the values the caller meant, "no prefetch" (-1,
// the DefaultConfig value) included.
func TestDefaultedIdempotent(t *testing.T) {
	cfgs := map[string]Config{"zero": {}, "default": DefaultConfig(1)}
	// The depths RunWasteVsPrefetch (E8) writes for its default sweep.
	for _, depth := range []int{-1, 1, 2, 4, 8} {
		c := DefaultConfig(1)
		c.PrefetchDepth = depth
		cfgs[fmt.Sprintf("depth%d", depth)] = c
	}
	for name, c := range cfgs {
		once := c.Defaulted()
		if twice := once.Defaulted(); !reflect.DeepEqual(twice, once) {
			t.Errorf("%s: defaulting twice gives %+v, once %+v", name, twice, once)
		}
	}
}

func TestFig3aShape(t *testing.T) {
	res, err := RunFig3a(context.Background(), smallConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if res.GroupID < 0 {
		t.Fatalf("group id %d", res.GroupID)
	}
	for c := range res.CDF {
		if len(res.CDF[c]) == 0 {
			t.Fatalf("category %d has empty CDF", c)
		}
		for i := 1; i < len(res.CDF[c]); i++ {
			if res.CDF[c][i] < res.CDF[c][i-1] {
				t.Fatalf("category %d CDF not monotone", c)
			}
		}
	}
	// The News-dominant group watches News longer than Game.
	if res.ExpectedWatchFraction[News.Index()] <= res.ExpectedWatchFraction[Game.Index()] {
		t.Fatalf("news %v not above game %v",
			res.ExpectedWatchFraction[News.Index()], res.ExpectedWatchFraction[Game.Index()])
	}
}

func TestFig3bSeriesAligned(t *testing.T) {
	res, err := RunFig3b(context.Background(), smallConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predicted) != len(res.Actual) || len(res.Predicted) == 0 {
		t.Fatalf("series %d/%d", len(res.Predicted), len(res.Actual))
	}
	if res.Accuracy < 0 || res.Accuracy > 1 {
		t.Fatalf("accuracy %v", res.Accuracy)
	}
	if res.OverallAccuracy < 0 || res.OverallAccuracy > 1 {
		t.Fatalf("overall accuracy %v", res.OverallAccuracy)
	}
}

func TestSharedTraceExtractors(t *testing.T) {
	tr := mustTrace(t, smallConfig(7))
	a, err := Fig3aFromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig3bFromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.GroupID != b.GroupID {
		t.Fatalf("panels disagree on group: %d vs %d", a.GroupID, b.GroupID)
	}
	empty := &Trace{}
	if _, err := Fig3aFromTrace(empty); !errors.Is(err, ErrExperiment) {
		t.Fatalf("want ErrExperiment, got %v", err)
	}
	if _, err := Fig3bFromTrace(empty); !errors.Is(err, ErrExperiment) {
		t.Fatalf("want ErrExperiment, got %v", err)
	}
}

func TestRunComputeDemand(t *testing.T) {
	// Seed chosen so the tiny scenario actually incurs transcode
	// cycles (some seeds stream entirely cache-warm at one rung,
	// which makes the volume metric undefined).
	res, err := RunComputeDemand(context.Background(), smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predicted) != len(res.Actual) || len(res.Predicted) == 0 {
		t.Fatal("misaligned compute series")
	}
}

func TestRunGroupingAblationDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	cfg := smallConfig(5)
	rows, err := RunGroupingAblation(context.Background(), cfg, []GroupingVariant{
		{Name: "ddqn+cnn", UseCNN: true},
		{Name: "fixed-k2", FixedK: 2, UseCNN: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[1].K != 2 {
		t.Fatalf("fixed-k2 ended with K=%d", rows[1].K)
	}
	for _, r := range rows {
		if r.RadioAccuracy < 0 || r.RadioAccuracy > 1 {
			t.Fatalf("accuracy %v for %s", r.RadioAccuracy, r.Variant.Name)
		}
	}
}

func TestRunAccuracyVsUsers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	cfg := smallConfig(6)
	rows, err := RunAccuracyVsUsers(context.Background(), cfg, []int{16, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Users != 16 || rows[1].Users != 32 {
		t.Fatalf("rows %+v", rows)
	}
}

func TestRunReservation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	rows, err := RunReservation(context.Background(), smallConfig(9), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.ViolationRate < 0 || r.ViolationRate > 1 {
			t.Fatalf("violation rate %v for %s", r.ViolationRate, r.Policy)
		}
		if r.Waste < 0 || r.Deficit < 0 {
			t.Fatalf("negative accounting for %s: %+v", r.Policy, r)
		}
	}
	if _, err := RunReservation(context.Background(), smallConfig(9), -1); err == nil {
		t.Fatal("negative margin must fail")
	}
}

func TestRunWasteVsPrefetch(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	rows, err := RunWasteVsPrefetch(context.Background(), smallConfig(10), []int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	// Deeper prefetch must waste at least as much traffic.
	if rows[1].WasteShare < rows[0].WasteShare {
		t.Fatalf("waste not monotone in depth: %v then %v", rows[0].WasteShare, rows[1].WasteShare)
	}
	for _, r := range rows {
		if r.WasteShare < 0 || r.WasteShare > 1 {
			t.Fatalf("waste share %v", r.WasteShare)
		}
	}
}

func TestRunQoEVsBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	rows, err := RunQoEVsBudget(context.Background(), smallConfig(11), []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	// A tight budget cannot raise QoE above unlimited.
	if rows[1].MeanQoE > rows[0].MeanQoE+1e-9 {
		t.Fatalf("budget QoE %v above unlimited %v", rows[1].MeanQoE, rows[0].MeanQoE)
	}
	if rows[0].UnderGrantRate != 0 {
		t.Fatalf("unlimited run reports under-grants: %v", rows[0].UnderGrantRate)
	}
}

func TestRunRadioAccuracyMultiSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	st, err := RunRadioAccuracyMultiSeed(context.Background(), smallConfig(0), []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Seeds != 2 {
		t.Fatalf("seeds %d", st.Seeds)
	}
	if st.Min > st.Mean || st.Mean > st.Max {
		t.Fatalf("ordering violated: %+v", st)
	}
	if st.Mean < 0 || st.Mean > 1 {
		t.Fatalf("mean %v", st.Mean)
	}
}

func TestRunPredictorBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	rows, err := RunPredictorBaselines(context.Background(), smallConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want dt + 3 baselines", len(rows))
	}
	if rows[0].Name != "dt-scheme" {
		t.Fatalf("first row %q", rows[0].Name)
	}
}

// TestExperimentsIgnoreMapOrder: the experiment aggregates fold their
// per-group series in ascending group id, so two identical calls agree
// to the last bit, and a tie for the News-dominant group goes to the
// lowest id.
func TestExperimentsIgnoreMapOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	ctx := context.Background()
	cfg := smallConfig(8)
	cfg.NumUsers = 100
	cfg.NumIntervals = 12
	cfg.FixedK = 8
	var predictors [2][]PredictorRow
	var reservation [2][]ReservationRow
	for i := range predictors {
		var err error
		if predictors[i], err = RunPredictorBaselines(ctx, cfg); err != nil {
			t.Fatal(err)
		}
		if reservation[i], err = RunReservation(ctx, cfg, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range predictors[1] {
		if math.Float64bits(r.Accuracy) != math.Float64bits(predictors[0][i].Accuracy) {
			t.Errorf("predictor %s: accuracy %v then %v", r.Name, predictors[0][i].Accuracy, r.Accuracy)
		}
	}
	for i, r := range reservation[1] {
		first := reservation[0][i]
		for _, f := range [][2]float64{
			{first.Waste, r.Waste}, {first.Deficit, r.Deficit},
			{first.ViolationRate, r.ViolationRate}, {first.Utilization, r.Utilization},
		} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				t.Errorf("policy %s: %+v then %+v", r.Policy, first, r)
				break
			}
		}
	}

	// Every group below has the same (uniform) distribution, so all
	// News−Game margins tie.
	uniform, err := predict.NewSwipeDistribution(nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trace{SwipeByGroup: map[int]*SwipeDistribution{7: uniform, 3: uniform, 5: uniform, 9: uniform, 4: uniform}}
	for range 32 {
		id, _, err := newsDominantGroup(tr)
		if err != nil {
			t.Fatal(err)
		}
		if id != 3 {
			t.Fatalf("tie broken to group %d, want the lowest id 3", id)
		}
	}
}

// TestPaperOrderingsHold gates three of the paper's orderings on the
// benches' scenario at seeds 1–10, each on every seed: the DDQN-chosen
// grouping predicts radio demand at least as well as fixed K = 8, the
// DT scheme at least as well as each history-only forecaster, and
// prediction-driven reservation wastes less than peak provisioning.
// Fig. 3(b)'s single-group accuracy is not gated: it is 1 − MAPE over
// one group's dozen intervals, and one seed can read tens of points
// below the rest.
func TestPaperOrderingsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	ctx := context.Background()
	for seed := int64(1); seed <= 10; seed++ {
		cfg := benchConfig(seed)
		ablation, err := RunGroupingAblation(ctx, cfg, []GroupingVariant{
			{Name: "ddqn+cnn", UseCNN: true},
			{Name: "fixed-k8", FixedK: 8, UseCNN: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if ddqn, fixed := ablation[0].RadioAccuracy, ablation[1].RadioAccuracy; ddqn < fixed {
			t.Errorf("seed %d: ddqn+cnn radio accuracy %.4f below fixed-k8 %.4f", seed, ddqn, fixed)
		}
		predictors, err := RunPredictorBaselines(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range predictors[1:] {
			if predictors[0].Accuracy < p.Accuracy {
				t.Errorf("seed %d: %s accuracy %.4f below %s %.4f",
					seed, predictors[0].Name, predictors[0].Accuracy, p.Name, p.Accuracy)
			}
		}
		reservation, err := RunReservation(ctx, cfg, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if pred, peak := reservation[0], reservation[1]; pred.Waste >= peak.Waste {
			t.Errorf("seed %d: %s waste %.3f not below %s %.3f", seed, pred.Policy, pred.Waste, peak.Policy, peak.Waste)
		}
	}
}
