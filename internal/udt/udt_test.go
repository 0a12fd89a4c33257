package udt

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"dtmsvs/internal/behavior"
	"dtmsvs/internal/video"
)

func newTwin(t *testing.T, cfg Config) *Twin {
	t.Helper()
	tw, err := NewTwin(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tw
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{HistoryLen: 1}).Validate(); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if err := (Config{ChannelEvery: -1}).Validate(); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestAttributeString(t *testing.T) {
	if AttrChannel.String() != "channel" || AttrPreference.String() != "preference" {
		t.Fatal("attribute names")
	}
	if Attribute(42).String() != "Attribute(42)" {
		t.Fatal("unknown attribute format")
	}
}

func TestRingWindow(t *testing.T) {
	r := &ring{buf: make([]float64, 4)}
	w := []float64{9, 9, 9}
	r.windowInto(w, 1)
	for _, v := range w {
		if v != 0 {
			t.Fatal("empty ring window must be zeros")
		}
	}
	r.add(1)
	r.add(2)
	w = make([]float64, 4)
	r.windowInto(w, 1)
	// Left-padded with oldest value (1).
	want := []float64{1, 1, 1, 2}
	for i := range want {
		if w[i] != want[i] {
			t.Fatalf("window %v, want %v", w, want)
		}
	}
	for _, x := range []float64{3, 4, 5, 6} {
		r.add(x)
	}
	// Ring holds 3,4,5,6 now.
	w = make([]float64, 3)
	r.windowInto(w, 2)
	want = []float64{2, 2.5, 3}
	for i := range want {
		if w[i] != want[i] {
			t.Fatalf("wrapped window %v, want %v", w, want)
		}
	}
	if r.len() != 4 {
		t.Fatalf("ring len %d", r.len())
	}
}

func TestCollectionFrequencies(t *testing.T) {
	tw := newTwin(t, Config{ChannelEvery: 2, LocationEvery: 3, WatchEvery: 1, PreferenceEvery: 4})
	accepted := map[string]int{}
	pref := behavior.NewUniformPreference()
	for tick := 1; tick <= 12; tick++ {
		tw.Tick()
		if ok, err := tw.CollectChannel(7); err != nil {
			t.Fatal(err)
		} else if ok {
			accepted["cqi"]++
		}
		if tw.CollectLocation(1, 2) {
			accepted["loc"]++
		}
		if ok, err := tw.CollectView(video.News, 10, 0.5, true); err != nil {
			t.Fatal(err)
		} else if ok {
			accepted["watch"]++
		}
		if ok, err := tw.CollectPreference(pref); err != nil {
			t.Fatal(err)
		} else if ok {
			accepted["pref"]++
		}
	}
	if accepted["cqi"] != 6 || accepted["loc"] != 4 || accepted["watch"] != 12 || accepted["pref"] != 3 {
		t.Fatalf("acceptance counts %v, want cqi=6 loc=4 watch=12 pref=3", accepted)
	}
}

func TestCollectValidation(t *testing.T) {
	tw := newTwin(t, Config{})
	tw.Tick()
	if _, err := tw.CollectChannel(0); !errors.Is(err, ErrParam) {
		t.Fatalf("cqi 0: want ErrParam, got %v", err)
	}
	if _, err := tw.CollectChannel(16); !errors.Is(err, ErrParam) {
		t.Fatalf("cqi 16: want ErrParam, got %v", err)
	}
	if _, err := tw.CollectView(video.Category(0), 1, 0.5, false); !errors.Is(err, ErrParam) {
		t.Fatalf("bad category: want ErrParam, got %v", err)
	}
	if _, err := tw.CollectView(video.News, -1, 0.5, false); !errors.Is(err, ErrParam) {
		t.Fatalf("negative watch: want ErrParam, got %v", err)
	}
	if _, err := tw.CollectView(video.News, 1, 1.5, false); !errors.Is(err, ErrParam) {
		t.Fatalf("engagement>1: want ErrParam, got %v", err)
	}
	if _, err := tw.CollectPreference(behavior.Preference{1}); err == nil {
		t.Fatal("bad preference must error")
	}
}

func TestStaleness(t *testing.T) {
	tw := newTwin(t, Config{PreferenceEvery: 100})
	for i := 0; i < 5; i++ {
		tw.Tick()
		if _, err := tw.CollectChannel(5); err != nil {
			t.Fatal(err)
		}
	}
	if s := tw.Staleness(AttrChannel); s != 0 {
		t.Fatalf("channel staleness %d, want 0", s)
	}
	if s := tw.Staleness(AttrPreference); s != 5 {
		t.Fatalf("preference staleness %d, want 5", s)
	}
	if tw.Ticks() != 5 {
		t.Fatalf("ticks %d", tw.Ticks())
	}
}

func TestIntervalCounters(t *testing.T) {
	tw := newTwin(t, Config{})
	tw.Tick()
	if _, err := tw.CollectView(video.News, 12, 0.6, true); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.CollectView(video.Game, 3, 0.2, true); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.CollectView(video.News, 8, 1.0, false); err != nil {
		t.Fatal(err)
	}
	wbc := tw.WatchByCategory()
	if wbc[video.News.Index()] != 20 || wbc[video.Game.Index()] != 3 {
		t.Fatalf("watch by category %v", wbc)
	}
	vbc := tw.ViewsByCategory()
	if vbc[video.News.Index()] != 2 || vbc[video.Game.Index()] != 1 {
		t.Fatalf("views by category %v", vbc)
	}
	swipes, views := tw.SwipeStats()
	if swipes != 2 || views != 3 {
		t.Fatalf("swipes %d views %d", swipes, views)
	}
}

func TestPreferenceSnapshotIsolation(t *testing.T) {
	tw := newTwin(t, Config{PreferenceEvery: 1})
	tw.Tick()
	p := behavior.NewUniformPreference()
	if _, err := tw.CollectPreference(p); err != nil {
		t.Fatal(err)
	}
	p[0] = 0.99 // mutate caller's copy
	got := tw.Preference()
	if got[0] == 0.99 {
		t.Fatal("twin must store a clone")
	}
	got[1] = 0.5
	if tw.Preference()[1] == 0.5 {
		t.Fatal("accessor must return a clone")
	}
}

// TestAddPreferenceToMatchesClones: summing members' preferences with
// AddPreferenceTo gives the bits of summing their Preference clones
// with += in the same member order.
func TestAddPreferenceToMatchesClones(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	twins := make([]*Twin, 7)
	for i := range twins {
		twins[i] = newTwin(t, Config{PreferenceEvery: 1})
		p, err := behavior.NewRandomPreference(rng, video.Category(i%video.NumCategories), float64(i))
		if err != nil {
			t.Fatal(err)
		}
		twins[i].Tick()
		if _, err := twins[i].CollectPreference(p); err != nil {
			t.Fatal(err)
		}
	}
	got := make(behavior.Preference, video.NumCategories)
	want := make(behavior.Preference, video.NumCategories)
	for _, tw := range twins {
		tw.AddPreferenceTo(got)
		for c, v := range tw.Preference() {
			want[c] += v
		}
	}
	for c := range want {
		if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
			t.Fatalf("category %d: AddPreferenceTo sum %v, clone sum %v", c, got[c], want[c])
		}
	}
}

func TestFeatureWindow(t *testing.T) {
	tw := newTwin(t, Config{ChannelEvery: 1, LocationEvery: 1, WatchEvery: 1, PreferenceEvery: 1})
	if _, err := tw.FeatureWindow(0, 2000); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	if _, err := tw.FeatureWindow(8, 0); !errors.Is(err, ErrParam) {
		t.Fatalf("want ErrParam, got %v", err)
	}
	tw.Tick()
	if _, err := tw.CollectChannel(15); err != nil {
		t.Fatal(err)
	}
	tw.CollectLocation(1000, 500)
	if _, err := tw.CollectView(video.News, 30, 0.5, true); err != nil {
		t.Fatal(err)
	}
	const steps = 8
	w, err := tw.FeatureWindow(steps, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != NumFeatureChannels*steps {
		t.Fatalf("window len %d", len(w))
	}
	// Channel block last value: CQI 15 → 1.0.
	if math.Abs(w[steps-1]-1.0) > 1e-12 {
		t.Fatalf("cqi feature %v, want 1.0", w[steps-1])
	}
	// x block last value: 1000/2000 = 0.5.
	if math.Abs(w[2*steps-1]-0.5) > 1e-12 {
		t.Fatalf("x feature %v, want 0.5", w[2*steps-1])
	}
	// watch block last value: 30/60 = 0.5.
	if math.Abs(w[4*steps-1]-0.5) > 1e-12 {
		t.Fatalf("watch feature %v, want 0.5", w[4*steps-1])
	}
	// engagement block last value: 0.5.
	if math.Abs(w[5*steps-1]-0.5) > 1e-12 {
		t.Fatalf("engage feature %v, want 0.5", w[5*steps-1])
	}
}

// TestFeatureWindowNewestSamples: the window's CQI block ends with
// the newest samples, left-padded with the oldest, and its location
// blocks end with the newest position.
func TestFeatureWindowNewestSamples(t *testing.T) {
	tw := newTwin(t, Config{})
	tw.Tick()
	if _, err := tw.CollectChannel(10); err != nil {
		t.Fatal(err)
	}
	tw.Tick()
	if _, err := tw.CollectChannel(12); err != nil {
		t.Fatal(err)
	}
	tw.CollectLocation(7, 9)
	const steps = 3
	w, err := tw.FeatureWindow(steps, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := w[:steps]; got[0] != 10./15 || got[1] != 10./15 || got[2] != 12./15 {
		t.Fatalf("cqi block %v, want [10 10 12]/15", got)
	}
	if x, y := w[2*steps-1], w[3*steps-1]; x != 7 || y != 9 {
		t.Fatalf("newest location %v,%v", x, y)
	}
}

// The twin must tolerate concurrent writers and readers (BS collectors
// vs grouping pipeline). Run with -race.
func TestConcurrentAccess(t *testing.T) {
	tw := newTwin(t, Config{})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			tw.Tick()
			_, _ = tw.CollectChannel(1 + i%15)
			tw.CollectLocation(float64(i), float64(i))
			_, _ = tw.CollectView(video.Music, 5, 0.5, true)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			_, _ = tw.FeatureWindow(16, 2000)
			tw.SwipeStats()
		}
	}()
	go func() {
		defer wg.Done()
		<-stop
	}()
	close(stop)
	wg.Wait()
}
