package behavior

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dtmsvs/internal/stats"
	"dtmsvs/internal/video"
)

func testCatalog(t *testing.T) *video.Catalog {
	t.Helper()
	cat, err := video.NewCatalog(video.CatalogConfig{NumVideos: 100}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestUniformPreference(t *testing.T) {
	p := NewUniformPreference()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, v := range p {
		if math.Abs(v-0.2) > 1e-12 {
			t.Fatalf("uniform value %v", v)
		}
	}
}

func TestRandomPreference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := NewRandomPreference(rng, video.News, -1); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	p, err := NewRandomPreference(rng, video.News, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Strong bias: News must dominate.
	if p[video.News.Index()] < 0.5 {
		t.Fatalf("biased preference %v not dominant", p)
	}
}

func TestPreferenceValidate(t *testing.T) {
	if err := (Preference{0.5, 0.5}).Validate(); !errors.Is(err, ErrParam) {
		t.Fatalf("wrong length: want ErrParam, got %v", err)
	}
	if err := (Preference{-0.1, 0.3, 0.3, 0.3, 0.2}).Validate(); !errors.Is(err, ErrParam) {
		t.Fatalf("negative: want ErrParam, got %v", err)
	}
	if err := (Preference{0.5, 0.5, 0.5, 0.5, 0.5}).Validate(); !errors.Is(err, ErrParam) {
		t.Fatalf("sum 2.5: want ErrParam, got %v", err)
	}
}

// TestPreferenceValidateRejectsNonFinite: a NaN or infinite weight is
// no distribution. A NaN once validated, since every comparison with it
// is false.
func TestPreferenceValidateRejectsNonFinite(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i := range video.NumCategories {
			p := NewUniformPreference()
			p[i] = w
			if err := p.Validate(); !errors.Is(err, ErrParam) {
				t.Fatalf("weight %d = %v: want ErrParam, got %v", i, w, err)
			}
		}
	}
}

// TestInPlaceConstructorsAllocateNothing: Preference.Draw draws what
// NewRandomPreference draws, and it and Profile.Init build in place.
func TestInPlaceConstructorsAllocateNothing(t *testing.T) {
	want, err := NewRandomPreference(rand.New(rand.NewSource(3)), video.Music, 6)
	if err != nil {
		t.Fatal(err)
	}
	got := make(Preference, video.NumCategories)
	if err := got.Draw(rand.New(rand.NewSource(3)), video.Music, 6); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Draw %v, NewRandomPreference %v", got, want)
		}
	}
	rng := rand.New(rand.NewSource(4))
	var pr Profile
	if n := testing.AllocsPerRun(10, func() {
		if err := got.Draw(rng, video.News, 6); err != nil {
			t.Fatal(err)
		}
		if err := pr.Init(got, 0.7); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Draw and Init allocate %.0f times", n)
	}
	if err := got.Draw(rng, video.News, -1); !errors.Is(err, ErrParam) {
		t.Fatalf("negative bias: want ErrParam, got %v", err)
	}
	if err := got[:2].Draw(rng, video.News, 6); !errors.Is(err, ErrParam) {
		t.Fatalf("short preference: want ErrParam, got %v", err)
	}
}

func TestPreferenceUpdate(t *testing.T) {
	p := NewUniformPreference()
	if err := p.Update(video.Category(99), 0.5, 0.1); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if err := p.Update(video.News, 0.5, 0); !errors.Is(err, ErrParam) {
		t.Fatalf("lr 0: want ErrParam, got %v", err)
	}
	// Repeated full engagement with News shifts mass toward News.
	for i := 0; i < 30; i++ {
		if err := p.Update(video.News, 1.0, 0.2); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("update broke normalization: %v", err)
	}
	newsIdx := video.News.Index()
	for i, v := range p {
		if i != newsIdx && p[newsIdx] <= v {
			t.Fatalf("news %v not dominant over %d=%v", p[newsIdx], i, v)
		}
	}
}

// Update keeps the preference a valid distribution for any inputs.
func TestPreferenceUpdateInvariant(t *testing.T) {
	f := func(catRaw uint8, engagement, lr float64) bool {
		p := NewUniformPreference()
		cat := video.AllCategories()[int(catRaw)%video.NumCategories]
		lr = math.Mod(math.Abs(lr), 1)
		if lr == 0 {
			lr = 0.5
		}
		engagement = math.Mod(math.Abs(engagement), 2) // deliberately allow >1; Update clamps
		if math.IsNaN(engagement) {
			engagement = 0.5
		}
		if err := p.Update(cat, engagement, lr); err != nil {
			return false
		}
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPreferenceClone(t *testing.T) {
	p := NewUniformPreference()
	c := p.Clone()
	c[0] = 0.9
	if p[0] == 0.9 {
		t.Fatal("clone aliases")
	}
}

func TestNewProfileValidation(t *testing.T) {
	if _, err := NewProfile(Preference{1}, 0.5); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if _, err := NewProfile(NewUniformPreference(), 0); !errors.Is(err, ErrParam) {
		t.Fatalf("zero engagement: want ErrParam, got %v", err)
	}
	if _, err := NewProfile(NewUniformPreference(), 1.5); !errors.Is(err, ErrParam) {
		t.Fatalf("engagement>1: want ErrParam, got %v", err)
	}
}

func TestWatchFractionBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pr, err := NewProfile(NewUniformPreference(), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.WatchFraction(video.Category(0), rng); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	for i := 0; i < 5000; i++ {
		f, ferr := pr.WatchFraction(video.Music, rng)
		if ferr != nil {
			t.Fatal(ferr)
		}
		if f < 0 || f > 1 {
			t.Fatalf("fraction %v out of bounds", f)
		}
	}
}

func TestPreferredCategoryWatchedLonger(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pref, err := NewRandomPreference(rng, video.News, 10)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := NewProfile(pref, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	mean := func(cat video.Category) float64 {
		var sum float64
		const n = 20000
		for i := 0; i < n; i++ {
			f, ferr := pr.WatchFraction(cat, rng)
			if ferr != nil {
				t.Fatal(ferr)
			}
			sum += f
		}
		return sum / n
	}
	if news, game := mean(video.News), mean(video.Game); news <= game {
		t.Fatalf("news %v not watched longer than game %v", news, game)
	}
}

func TestViewEventEngagement(t *testing.T) {
	v := &video.Video{DurationS: 20}
	e := ViewEvent{Video: v, WatchS: 5}
	if e.Engagement() != 0.25 {
		t.Fatalf("engagement %v", e.Engagement())
	}
	z := ViewEvent{Video: &video.Video{DurationS: 0}, WatchS: 5}
	if z.Engagement() != 0 {
		t.Fatal("zero-duration engagement must be 0")
	}
}

func TestSessionValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pr, err := NewProfile(NewUniformPreference(), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Session(nil, pr, 60, 1e6, rng); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	cat := testCatalog(t)
	if _, err := Session(cat, pr, 0, 1e6, rng); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
}

func TestSessionFillsInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pr, err := NewProfile(NewUniformPreference(), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	cat := testCatalog(t)
	const interval = 300.0
	events, err := Session(cat, pr, interval, 2e6, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events")
	}
	var watched float64
	for _, e := range events {
		if e.WatchS < 0 {
			t.Fatalf("negative watch %v", e.WatchS)
		}
		if e.Rep.BitrateBps > 2e6 {
			t.Fatalf("rep %v exceeds link cap", e.Rep.BitrateBps)
		}
		watched += e.WatchS
	}
	if watched > interval+1 {
		t.Fatalf("watched %v exceeds interval %v", watched, interval)
	}
	// A short-video session should pack many views into 5 minutes.
	if len(events) < 5 {
		t.Fatalf("only %d events in %v s", len(events), interval)
	}
}

func TestSessionLinkCapSelectsLowRungs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pr, err := NewProfile(NewUniformPreference(), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	cat := testCatalog(t)
	events, err := Session(cat, pr, 120, 500e3, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Rep.BitrateBps > 500e3 {
			t.Fatalf("rep %v over constrained link", e.Rep.BitrateBps)
		}
	}
}

// TestAppendSession: AppendSession appends exactly Session's events
// from the same stream after what dst holds, and into a dst with room
// allocates no more than the preference sampler does. On error it
// returns dst as passed.
func TestAppendSession(t *testing.T) {
	pr, err := NewProfile(NewUniformPreference(), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	cat := testCatalog(t)
	want, err := Session(cat, pr, 300, 2e6, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	prefix := ViewEvent{WatchS: -1}
	got, err := AppendSession([]ViewEvent{prefix}, cat, pr, 300, 2e6, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1+len(want) || got[0] != prefix {
		t.Fatalf("appended %d events after %+v, want %d after the prefix", len(got)-1, got[0], len(want))
	}
	for i, e := range want {
		if got[1+i] != e {
			t.Fatalf("event %d: %+v, Session %+v", i, got[1+i], e)
		}
	}

	sampler := testing.AllocsPerRun(20, func() {
		if _, err := stats.NewCategorical(pr.Pref); err != nil {
			t.Fatal(err)
		}
	})
	buf := make([]ViewEvent, 0, 4*len(want))
	rng := rand.New(rand.NewSource(9))
	if a := testing.AllocsPerRun(20, func() {
		if buf, err = AppendSession(buf[:0], cat, pr, 300, 2e6, rng); err != nil {
			t.Fatal(err)
		}
	}); a > sampler {
		t.Fatalf("AppendSession into a buffer with room allocates %v times, the sampler %v", a, sampler)
	}

	dst := []ViewEvent{prefix}
	if out, err := AppendSession(dst, cat, pr, 0, 2e6, rng); !errors.Is(err, ErrParam) || len(out) != 1 || out[0] != prefix {
		t.Fatalf("invalid interval: %d events, %v; want dst back and ErrParam", len(out), err)
	}
}
