package predict

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dtmsvs/internal/behavior"
	"dtmsvs/internal/channel"
	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/udt"
	"dtmsvs/internal/video"
)

func obsOf(cat video.Category, fracs ...float64) []GroupObservation {
	out := make([]GroupObservation, len(fracs))
	for i, f := range fracs {
		out[i] = GroupObservation{Category: cat, WatchFraction: f}
	}
	return out
}

func TestNewSwipeDistributionValidation(t *testing.T) {
	if _, err := NewSwipeDistribution(obsOf(video.Category(0), 0.5)); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput, got %v", err)
	}
	if _, err := NewSwipeDistribution(obsOf(video.News, -0.1)); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput, got %v", err)
	}
	if _, err := NewSwipeDistribution(obsOf(video.News, 1.5)); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput, got %v", err)
	}
}

func TestSwipeDistributionEmptyUniform(t *testing.T) {
	d, err := NewSwipeDistribution(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range video.AllCategories() {
		e, eerr := d.ExpectedWatchFraction(c)
		if eerr != nil {
			t.Fatal(eerr)
		}
		// Uniform CDF → E[frac] ≈ 0.5.
		if math.Abs(e-0.5) > 0.05 {
			t.Fatalf("empty-category expectation %v, want ~0.5", e)
		}
	}
}

func TestSwipeCDFMonotoneNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var obs []GroupObservation
	for i := 0; i < 500; i++ {
		obs = append(obs, GroupObservation{Category: video.News, WatchFraction: rng.Float64()})
	}
	d, err := NewSwipeDistribution(obs)
	if err != nil {
		t.Fatal(err)
	}
	cdf := d.CDF[video.News.Index()]
	if len(cdf) != SwipeBins {
		t.Fatalf("cdf bins %d", len(cdf))
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1] {
			t.Fatal("cdf not monotone")
		}
	}
	if math.Abs(cdf[len(cdf)-1]-1) > 1e-9 {
		t.Fatalf("cdf tail %v", cdf[len(cdf)-1])
	}
	if d.Samples[video.News.Index()] != 500 {
		t.Fatalf("samples %d", d.Samples[video.News.Index()])
	}
}

func TestExpectedWatchFractionKnownDistributions(t *testing.T) {
	// All watch to completion → expectation ≈ 1.
	d, err := NewSwipeDistribution(obsOf(video.News, 1, 1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	e, err := d.ExpectedWatchFraction(video.News)
	if err != nil {
		t.Fatal(err)
	}
	if e < 0.95 {
		t.Fatalf("completion expectation %v, want ~1", e)
	}
	// All swipe instantly → expectation ≈ 0.
	d, err = NewSwipeDistribution(obsOf(video.Game, 0, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	e, err = d.ExpectedWatchFraction(video.Game)
	if err != nil {
		t.Fatal(err)
	}
	if e > 0.06 {
		t.Fatalf("instant-swipe expectation %v, want ~0", e)
	}
	// Uniform draws → ≈ 0.5.
	rng := rand.New(rand.NewSource(2))
	var fr []float64
	for i := 0; i < 2000; i++ {
		fr = append(fr, rng.Float64())
	}
	d, err = NewSwipeDistribution(obsOf(video.Music, fr...))
	if err != nil {
		t.Fatal(err)
	}
	e, err = d.ExpectedWatchFraction(video.Music)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-0.5) > 0.05 {
		t.Fatalf("uniform expectation %v, want ~0.5", e)
	}
	if _, err := d.ExpectedWatchFraction(video.Category(9)); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput, got %v", err)
	}
}

// E[max of m] must be ≥ E[single] and increase with m.
func TestExpectedMaxWatchFractionMonotoneInGroupSize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var fr []float64
	for i := 0; i < 1000; i++ {
		fr = append(fr, rng.Float64())
	}
	d, err := NewSwipeDistribution(obsOf(video.News, fr...))
	if err != nil {
		t.Fatal(err)
	}
	single, err := d.ExpectedWatchFraction(video.News)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, m := range []int{1, 2, 5, 20, 100} {
		mx, merr := d.ExpectedMaxWatchFraction(video.News, m)
		if merr != nil {
			t.Fatal(merr)
		}
		if mx < prev-1e-9 {
			t.Fatalf("E[max] not monotone at m=%d", m)
		}
		if m == 1 && math.Abs(mx-single) > 1e-9 {
			t.Fatalf("E[max of 1] %v != E[single] %v", mx, single)
		}
		prev = mx
	}
	if _, err := d.ExpectedMaxWatchFraction(video.News, 0); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput, got %v", err)
	}
}

// Sticky category (News) must have a CDF dominated by the fast-swipe
// category (Game) — the Fig. 3(a) shape.
func TestStickyVsFastSwipeCDFOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var obs []GroupObservation
	for i := 0; i < 1000; i++ {
		obs = append(obs,
			GroupObservation{Category: video.News, WatchFraction: math.Min(1, 0.6+0.4*rng.Float64())},
			GroupObservation{Category: video.Game, WatchFraction: 0.4 * rng.Float64()},
		)
	}
	d, err := NewSwipeDistribution(obs)
	if err != nil {
		t.Fatal(err)
	}
	newsCDF := d.CDF[video.News.Index()]
	gameCDF := d.CDF[video.Game.Index()]
	for i := 0; i < SwipeBins-1; i++ {
		if newsCDF[i] > gameCDF[i]+1e-9 {
			t.Fatalf("bin %d: news cdf %v above game %v", i, newsCDF[i], gameCDF[i])
		}
	}
	eNews, err := d.ExpectedWatchFraction(video.News)
	if err != nil {
		t.Fatal(err)
	}
	eGame, err := d.ExpectedWatchFraction(video.Game)
	if err != nil {
		t.Fatal(err)
	}
	if eNews <= eGame {
		t.Fatalf("news %v not watched longer than game %v", eNews, eGame)
	}
}

func groupTwins(t *testing.T, n int) []*udt.Twin {
	t.Helper()
	twins := make([]*udt.Twin, n)
	for i := range twins {
		tw, err := udt.NewTwin(i, udt.Config{
			ChannelEvery: 1, LocationEvery: 1, WatchEvery: 1, PreferenceEvery: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		tw.Tick()
		if _, err := tw.CollectView(video.News, 25, 0.8, false); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.CollectView(video.Game, 4, 0.15, true); err != nil {
			t.Fatal(err)
		}
		pref, perr := behavior.NewRandomPreference(rand.New(rand.NewSource(int64(i))), video.News, 4)
		if perr != nil {
			t.Fatal(perr)
		}
		if _, err := tw.CollectPreference(pref); err != nil {
			t.Fatal(err)
		}
		twins[i] = tw
	}
	return twins
}

func TestObservationsFromTwins(t *testing.T) {
	empty, err := ObservationsFromTwins(nil)
	if err != nil || len(empty) != 0 {
		t.Fatalf("nil twins: %v, %v", empty, err)
	}
	twins := groupTwins(t, 3)
	obs, err := ObservationsFromTwins(twins)
	if err != nil {
		t.Fatal(err)
	}
	// 2 views per twin.
	if len(obs) != 6 {
		t.Fatalf("%d observations", len(obs))
	}
	for _, o := range obs {
		if o.WatchFraction < 0 || o.WatchFraction > 1 {
			t.Fatalf("fraction %v", o.WatchFraction)
		}
	}
}

// viewedTwin returns a twin holding, per category, views[ci] views
// each watched to fracs[ci].
func viewedTwin(t *testing.T, id int, views [video.NumCategories]int, fracs [video.NumCategories]float64) *udt.Twin {
	t.Helper()
	tw, err := udt.NewTwin(id, udt.Config{HistoryLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	for ci, cat := range video.AllCategories() {
		for v := 0; v < views[ci]; v++ {
			if _, err := tw.CollectView(cat, 10, fracs[ci], false); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tw
}

// TestGroupProfileFoldMatchesExpansion: the swipe distribution
// BuildGroupProfile folds from (mean fraction, view count) pairs is the
// one NewSwipeDistribution builds from the per-view expansion of the
// same twins — every CDF value equal with ==, every sample count equal
// — over random groups that include twins with no views, twins with
// one category only, fractions at 0, 1 and on bin edges, and more than
// 10⁵ cumulative views.
func TestGroupProfileFoldMatchesExpansion(t *testing.T) {
	cat := testCatalog(t)
	edges := []float64{0, 1, 0.05, 0.5, 0.95, 1.0 / SwipeBins * 7, 0.3, 0.7}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 12; trial++ {
		var twins []*udt.Twin
		total := 0
		for id, n := 0, 2+rng.Intn(6); id < n; id++ {
			var views [video.NumCategories]int
			var fracs [video.NumCategories]float64
			switch rng.Intn(4) {
			case 0: // no views at all
			case 1: // one category only
				views[rng.Intn(video.NumCategories)] = 1 + rng.Intn(50)
			default:
				for ci := range views {
					views[ci] = rng.Intn(60)
				}
			}
			if trial == 0 && id == 0 {
				views = [video.NumCategories]int{60000, 0, 45000, 1, 0}
			}
			for ci := range fracs {
				if rng.Intn(2) == 0 {
					fracs[ci] = edges[rng.Intn(len(edges))]
				} else {
					fracs[ci] = rng.Float64()
				}
				total += views[ci]
			}
			twins = append(twins, viewedTwin(t, id, views, fracs))
		}
		if trial == 0 && total <= 100000 {
			t.Fatalf("trial 0 holds %d views, want > 1e5", total)
		}
		obs, err := ObservationsFromTwins(twins)
		if err != nil {
			t.Fatal(err)
		}
		if len(obs) != total {
			t.Fatalf("trial %d: %d observations for %d views", trial, len(obs), total)
		}
		want, err := NewSwipeDistribution(obs)
		if err != nil {
			t.Fatal(err)
		}
		p, err := BuildGroupProfile(twins, cat, 5)
		if err != nil {
			t.Fatal(err)
		}
		if p.Swipe.Samples != want.Samples {
			t.Fatalf("trial %d: samples %v, want %v", trial, p.Swipe.Samples, want.Samples)
		}
		for ci := range want.CDF {
			if len(p.Swipe.CDF[ci]) != len(want.CDF[ci]) {
				t.Fatalf("trial %d category %d: %d bins, want %d", trial, ci, len(p.Swipe.CDF[ci]), len(want.CDF[ci]))
			}
			for i, w := range want.CDF[ci] {
				if p.Swipe.CDF[ci][i] != w {
					t.Fatalf("trial %d category %d bin %d: %v, want %v", trial, ci, i, p.Swipe.CDF[ci][i], w)
				}
			}
		}
	}
}

func testCatalog(t *testing.T) *video.Catalog {
	t.Helper()
	cat, err := video.NewCatalog(video.CatalogConfig{NumVideos: 100}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestBuildGroupProfile(t *testing.T) {
	cat := testCatalog(t)
	if _, err := BuildGroupProfile(nil, cat, 10); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput, got %v", err)
	}
	twins := groupTwins(t, 5)
	if _, err := BuildGroupProfile(twins, nil, 10); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput, got %v", err)
	}
	if _, err := BuildGroupProfile(twins, cat, 0); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput, got %v", err)
	}
	p, err := BuildGroupProfile(twins, cat, 10)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size != 5 {
		t.Fatalf("size %d", p.Size)
	}
	if len(p.Recommended) != 10 {
		t.Fatalf("%d recommended", len(p.Recommended))
	}
	if err := p.Preference.Validate(); err != nil {
		t.Fatalf("mean preference invalid: %v", err)
	}
	// News-leaning twins → News preference dominant.
	if p.Preference[video.News.Index()] < 0.3 {
		t.Fatalf("news preference %v", p.Preference[video.News.Index()])
	}
	// Mean engagement = (25+4)/2.
	if math.Abs(p.MeanEngagementS-14.5) > 1e-9 {
		t.Fatalf("mean engagement %v", p.MeanEngagementS)
	}
	// Recommended sorted by popularity×preference, descending.
	for i := 1; i < len(p.Recommended); i++ {
		si := cat.Popularity(p.Recommended[i].ID) * p.Preference[p.Recommended[i].Category.Index()]
		sp := cat.Popularity(p.Recommended[i-1].ID) * p.Preference[p.Recommended[i-1].Category.Index()]
		if si > sp+1e-12 {
			t.Fatalf("recommendation order violated at %d", i)
		}
	}
}

func demandPredictor() DemandPredictor {
	return DemandPredictor{
		Params:             channel.DefaultParams(),
		IntervalS:          300,
		SwipeGapS:          0.5,
		MeanVideoDurationS: 35,
		CyclesPerBit:       50,
	}
}

func TestDemandPredictorValidate(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*DemandPredictor)
	}{
		{"interval", func(p *DemandPredictor) { p.IntervalS = 0 }},
		{"gap", func(p *DemandPredictor) { p.SwipeGapS = -1 }},
		{"duration", func(p *DemandPredictor) { p.MeanVideoDurationS = 0 }},
		{"cycles", func(p *DemandPredictor) { p.CyclesPerBit = -1 }},
		{"hitrate", func(p *DemandPredictor) { p.CacheHitRate = 2 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := demandPredictor()
			tt.mut(&p)
			if err := p.Validate(); !errors.Is(err, ErrInput) {
				t.Fatalf("want ErrInput, got %v", err)
			}
		})
	}
}

func testProfile(t *testing.T) *GroupProfile {
	t.Helper()
	twins := groupTwins(t, 8)
	p, err := BuildGroupProfile(twins, testCatalog(t), 20)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPredictDemandBasics(t *testing.T) {
	pr := demandPredictor()
	profile := testProfile(t)
	if _, err := pr.Predict(nil, 1e6, 10); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput, got %v", err)
	}
	if _, err := pr.Predict(profile, 0, 10); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput, got %v", err)
	}
	d, err := pr.Predict(profile, 1.85e6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if d.RadioRBs <= 0 || d.TrafficBits <= 0 || d.EngagementS <= 0 {
		t.Fatalf("degenerate demand %+v", d)
	}
	// Transcoding predicted since 1.85 Mbps < top rung.
	if d.ComputeCycles <= 0 {
		t.Fatalf("compute cycles %v", d.ComputeCycles)
	}
	// Top rung → no transcode.
	dTop, err := pr.Predict(profile, 2.5e6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if dTop.ComputeCycles != 0 {
		t.Fatalf("top-rung cycles %v", dTop.ComputeCycles)
	}
}

func TestPredictDemandMonotoneInSNR(t *testing.T) {
	pr := demandPredictor()
	profile := testProfile(t)
	dLow, err := pr.Predict(profile, 1.2e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	dHigh, err := pr.Predict(profile, 1.2e6, 20)
	if err != nil {
		t.Fatal(err)
	}
	if dHigh.RadioRBs >= dLow.RadioRBs {
		t.Fatalf("better snr must need fewer RBs: %v vs %v", dHigh.RadioRBs, dLow.RadioRBs)
	}
}

func TestPredictTrafficScalesWithBitrate(t *testing.T) {
	pr := demandPredictor()
	profile := testProfile(t)
	d1, err := pr.Predict(profile, 1e6, 10)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := pr.Predict(profile, 2e6, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d2.TrafficBits/d1.TrafficBits-2) > 1e-9 {
		t.Fatalf("traffic not linear in bitrate: %v vs %v", d1.TrafficBits, d2.TrafficBits)
	}
}

// TestEWMA: the first observation is taken as is, each later one
// weighs in at Alpha, and the state round-trips through the checkpoint
// codec.
func TestEWMA(t *testing.T) {
	if _, err := NewEWMA(0); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput, got %v", err)
	}
	if _, err := NewEWMA(1.5); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput, got %v", err)
	}
	f, err := NewEWMA(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Predict(); ok {
		t.Fatal("forecast before any observation")
	}
	f.Observe(10)
	v, ok := f.Predict()
	if !ok || v != 10 {
		t.Fatalf("first observation %v", v)
	}
	f.Observe(20)
	v, _ = f.Predict()
	if v != 15 {
		t.Fatalf("ewma %v, want 15", v)
	}
	var e checkpoint.Enc
	f.EncodeState(&e)
	back, err := NewEWMA(0.5)
	if err != nil {
		t.Fatal(err)
	}
	d := checkpoint.NewDec(e.Bytes())
	if err := back.DecodeState(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got, ok := back.Predict(); !ok || got != 15 {
		t.Fatalf("decoded ewma %v (ready %v), want 15", got, ok)
	}
	if err := back.DecodeState(checkpoint.NewDec(e.Bytes()[:8])); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("truncated state: want checkpoint.ErrCorrupt, got %v", err)
	}
}

func TestBaselinePredictors(t *testing.T) {
	if _, err := NewMovingAverage(0); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput, got %v", err)
	}
	if _, err := NewEWMA(0); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput, got %v", err)
	}

	lv := &LastValue{}
	if _, ok := lv.Predict(); ok {
		t.Fatal("empty last-value predicted")
	}
	lv.Observe(3)
	lv.Observe(7)
	if v, ok := lv.Predict(); !ok || v != 7 {
		t.Fatalf("last value %v", v)
	}
	if lv.Name() != "last-value" {
		t.Fatal("name")
	}

	ma, err := NewMovingAverage(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ma.Predict(); ok {
		t.Fatal("empty ma predicted")
	}
	for _, x := range []float64{1, 2, 3, 4} {
		ma.Observe(x)
	}
	if v, ok := ma.Predict(); !ok || v != 3 {
		t.Fatalf("ma %v, want 3 (mean of 2,3,4)", v)
	}

	ew, err := NewEWMA(0.5)
	if err != nil {
		t.Fatal(err)
	}
	ew.Observe(10)
	ew.Observe(0)
	if v, ok := ew.Predict(); !ok || v != 5 {
		t.Fatalf("ewma %v, want 5", v)
	}
}

// Moving average over window 1 must behave exactly like last-value.
func TestMovingAverageWindowOneEqualsLastValue(t *testing.T) {
	f := func(xs []float64) bool {
		ma, err := NewMovingAverage(1)
		if err != nil {
			return false
		}
		lv := &LastValue{}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			ma.Observe(x)
			lv.Observe(x)
			mv, mok := ma.Predict()
			lvv, lok := lv.Predict()
			if mok != lok || mv != lvv {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestExpectedMaxWasteFraction(t *testing.T) {
	// Everyone completes → no waste at any depth.
	d, err := NewSwipeDistribution(obsOf(video.News, 1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	wf, err := d.ExpectedMaxWasteFraction(video.News, 5, 35, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if wf > 0.01 {
		t.Fatalf("completion waste %v, want ~0", wf)
	}
	// Instant swipers → waste ≈ first segment + prefetch window.
	d, err = NewSwipeDistribution(obsOf(video.Game, 0, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	wf, err = d.ExpectedMaxWasteFraction(video.Game, 3, 40, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Swipe at bin edge 0.05 → watched 2 s, delivered ceil(2/4)+2
	// segments = 12 s → waste 10 s of 40 s = 0.25.
	if math.Abs(wf-0.25) > 0.02 {
		t.Fatalf("instant-swipe waste %v, want ~0.25", wf)
	}
	// Validation.
	if _, err := d.ExpectedMaxWasteFraction(video.Category(0), 3, 40, 4, 2); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput, got %v", err)
	}
	if _, err := d.ExpectedMaxWasteFraction(video.Game, 0, 40, 4, 2); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput, got %v", err)
	}
	if _, err := d.ExpectedMaxWasteFraction(video.Game, 3, 0, 4, 2); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput, got %v", err)
	}
	if _, err := d.ExpectedMaxWasteFraction(video.Game, 3, 40, 4, -1); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput, got %v", err)
	}
}

// Waste expectation grows with prefetch depth.
func TestExpectedMaxWasteMonotoneInDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var fr []float64
	for i := 0; i < 500; i++ {
		fr = append(fr, 0.7*rng.Float64())
	}
	d, err := NewSwipeDistribution(obsOf(video.Music, fr...))
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for depth := 0; depth <= 6; depth++ {
		wf, werr := d.ExpectedMaxWasteFraction(video.Music, 2, 35, 4, depth)
		if werr != nil {
			t.Fatal(werr)
		}
		if wf < prev-1e-9 {
			t.Fatalf("waste not monotone at depth %d: %v < %v", depth, wf, prev)
		}
		prev = wf
	}
}

func TestPredictWithSegments(t *testing.T) {
	pr := demandPredictor()
	pr.SegmentS = 4
	pr.PrefetchDepth = 2
	profile := testProfile(t)
	d, err := pr.Predict(profile, 1.85e6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if d.WasteBits < 0 {
		t.Fatalf("negative waste %v", d.WasteBits)
	}
	if d.WasteBits >= d.TrafficBits {
		t.Fatalf("waste %v not below traffic %v", d.WasteBits, d.TrafficBits)
	}
	// Without segmentation the waste is zero and traffic lower.
	pr.SegmentS = 0
	pr.PrefetchDepth = 0
	d0, err := pr.Predict(profile, 1.85e6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if d0.WasteBits != 0 {
		t.Fatalf("no-segment waste %v", d0.WasteBits)
	}
	if d.TrafficBits < d0.TrafficBits {
		t.Fatalf("segmented traffic %v below plain %v", d.TrafficBits, d0.TrafficBits)
	}
	// Validation of the new fields.
	pr.SegmentS = -1
	if err := pr.Validate(); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput, got %v", err)
	}
}
