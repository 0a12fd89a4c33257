package udt

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"

	"dtmsvs/internal/behavior"
	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/video"
)

var everyTick = Config{ChannelEvery: 1, LocationEvery: 1, WatchEvery: 1, PreferenceEvery: 1}

// populatedTwin builds a twin with data in every series.
func populatedTwin(t *testing.T) *Twin {
	t.Helper()
	tw := newTwin(t, everyTick)
	pref := behavior.Preference{0.4, 0.2, 0.2, 0.1, 0.1}
	for tick := 1; tick <= 12; tick++ {
		tw.Tick()
		if _, err := tw.CollectChannel(1 + tick%15); err != nil {
			t.Fatal(err)
		}
		tw.CollectLocation(float64(10*tick), float64(5*tick))
		if _, err := tw.CollectView(video.Music, float64(tick), 0.5, tick%2 == 0); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.CollectPreference(pref); err != nil {
			t.Fatal(err)
		}
	}
	return tw
}

func encodeState(tw *Twin) []byte {
	var e checkpoint.Enc
	tw.EncodeState(&e)
	return bytes.Clone(e.Bytes())
}

// decodeState decodes b into tw and requires it consumed exactly.
func decodeState(tw *Twin, b []byte) error {
	d := checkpoint.NewDec(b)
	if err := tw.DecodeState(d); err != nil {
		return err
	}
	return d.Close()
}

// TestSnapshotRestoreRoundTrip: everything a reader of the twin can
// observe survives encode → decode into a freshly built twin.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	tw := populatedTwin(t)
	back := newTwin(t, everyTick)
	if err := decodeState(back, encodeState(tw)); err != nil {
		t.Fatal(err)
	}
	if back.UserID != tw.UserID || back.Ticks() != tw.Ticks() {
		t.Fatalf("identity lost: %d/%d vs %d/%d", back.UserID, back.Ticks(), tw.UserID, tw.Ticks())
	}
	w1, err := tw.FeatureWindow(8, 2000)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := back.FeatureWindow(8, 2000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("feature window differs at %d: %v vs %v", i, w1[i], w2[i])
		}
	}
	s1, v1 := tw.SwipeStats()
	s2, v2 := back.SwipeStats()
	if s1 != s2 || v1 != v2 {
		t.Fatalf("swipe stats %d/%d vs %d/%d", s1, v1, s2, v2)
	}
	if tw.WatchByCategory() != back.WatchByCategory() {
		t.Fatal("watch counters differ")
	}
	if tw.EngagementByCategory() != back.EngagementByCategory() {
		t.Fatal("engagement counters differ")
	}
	if tw.ViewsByCategory() != back.ViewsByCategory() {
		t.Fatal("view counters differ")
	}
	p1, p2 := tw.Preference(), back.Preference()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("preference differs")
		}
	}
	for a := AttrChannel; a <= AttrPreference; a++ {
		if tw.Staleness(a) != back.Staleness(a) {
			t.Fatalf("staleness %v differs", a)
		}
	}
}

// TestStateCodecRingFills: at every ring fill — empty, partly filled,
// exactly full, wrapped once and many times — decode reproduces the
// series bit for bit (signed zeros and NaN payloads included), a
// decoded twin re-encodes to the same bytes, and it keeps collecting
// exactly as the original does.
func TestStateCodecRingFills(t *testing.T) {
	const history = 8
	cfg := Config{HistoryLen: history, ChannelEvery: 1, LocationEvery: 1, WatchEvery: 1, PreferenceEvery: 3}
	odd := []float64{
		math.Copysign(0, -1), 0,
		math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(0xfff0_0000_0000_0001),
		math.Inf(1), math.SmallestNonzeroFloat64, -math.MaxFloat64,
	}
	feed := func(tw *Twin, from, to int) {
		for i := from; i < to; i++ {
			tw.Tick()
			if _, err := tw.CollectChannel(1 + i%15); err != nil {
				t.Fatal(err)
			}
			tw.CollectLocation(odd[i%len(odd)], float64(i))
			if _, err := tw.CollectView(video.AllCategories()[i%video.NumCategories], float64(i), 0.25, i%3 == 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, samples := range []int{0, 1, history - 1, history, history + 1, 2*history + 3, 5 * history} {
		tw, err := NewTwin(7, cfg)
		if err != nil {
			t.Fatal(err)
		}
		feed(tw, 0, samples)
		enc := encodeState(tw)

		back, err := NewTwin(7, cfg)
		if err != nil {
			t.Fatal(err)
		}
		feed(back, 100, 100+history+2) // stale state the decode must fully replace
		if err := decodeState(back, enc); err != nil {
			t.Fatalf("%d samples: %v", samples, err)
		}
		if again := encodeState(back); !bytes.Equal(again, enc) {
			t.Fatalf("%d samples: encode → decode → encode changed the bytes", samples)
		}
		rings, backRings := tw.rings(), back.rings()
		for ri, r := range rings {
			want, got := make([]float64, r.len()), make([]float64, backRings[ri].len())
			r.windowInto(want, 1)
			backRings[ri].windowInto(got, 1)
			if len(want) != len(got) {
				t.Fatalf("%d samples: ring %d holds %d values, want %d", samples, ri, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("%d samples: ring %d[%d] bits %016x, want %016x",
						samples, ri, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
		feed(tw, samples, samples+history/2)
		feed(back, samples, samples+history/2)
		if !bytes.Equal(encodeState(tw), encodeState(back)) {
			t.Fatalf("%d samples: original and decoded twin diverge after more collection", samples)
		}
	}
}

// rawState is the wire layout field by field, so a test can write any
// one of them wrong.
type rawState struct {
	identity                [6]int
	ticks                   int
	rings                   [NumFeatureChannels][]float64
	pref, watchBy, engageBy []float64
	viewsBy                 []int
	swipes, views           int
	stale                   [4]int
	trailing                []byte
}

func (s rawState) encode() []byte {
	var e checkpoint.Enc
	for _, v := range s.identity {
		e.Int(v)
	}
	e.Int(s.ticks)
	for _, r := range s.rings {
		e.F64s(r)
	}
	e.F64s(s.pref)
	e.F64s(s.watchBy)
	e.F64s(s.engageBy)
	e.Ints(s.viewsBy)
	e.Int(s.swipes)
	e.Int(s.views)
	for _, v := range s.stale {
		e.Int(v)
	}
	return append(e.Bytes(), s.trailing...)
}

// TestRestoreValidation: the hand-written layout is what EncodeState
// emits, and each way of getting one field wrong is refused as
// checkpoint.ErrCorrupt — never accepted, truncated to fit, or sized
// by the input.
func TestRestoreValidation(t *testing.T) {
	cfg := Config{HistoryLen: 4}.withDefaults()
	valid := func() rawState {
		return rawState{
			identity: [6]int{1, 4, cfg.ChannelEvery, cfg.LocationEvery, cfg.WatchEvery, cfg.PreferenceEvery},
			ticks:    9,
			rings:    [NumFeatureChannels][]float64{{3, 4, 5, 6}, {1, 2}, {7, 8}, {}, {0.5}},
			pref:     []float64{0.4, 0.2, 0.2, 0.1, 0.1},
			watchBy:  []float64{1, 2, 3, 4, 5},
			engageBy: []float64{0.1, 0.2, 0.3, 0.4, 0.5},
			viewsBy:  []int{1, 0, 2, 0, 3},
			swipes:   2, views: 6,
			stale: [4]int{0, 1, 2, 3},
		}
	}
	tw := newTwin(t, cfg)
	if err := decodeState(tw, valid().encode()); err != nil {
		t.Fatalf("valid state refused: %v", err)
	}
	if got := encodeState(tw); !bytes.Equal(got, valid().encode()) {
		t.Fatal("EncodeState does not emit the documented layout")
	}
	newest := []float64{0}
	tw.cqi.windowInto(newest, 1)
	if tw.Staleness(AttrWatch) != 2 || tw.ViewsByCategory()[4] != 3 || newest[0] != 6 {
		t.Fatal("valid state decoded into the wrong fields")
	}

	for _, tc := range []struct {
		name string
		mut  func(*rawState)
	}{
		{"user id mismatch", func(s *rawState) { s.identity[0] = 2 }},
		{"history len mismatch", func(s *rawState) { s.identity[1] = 8 }},
		{"collection period mismatch", func(s *rawState) { s.identity[5]++ }},
		{"over-capacity ring", func(s *rawState) { s.rings[2] = make([]float64, 5) }},
		{"huge ring", func(s *rawState) { s.rings[0] = make([]float64, 1<<16) }},
		{"short preference", func(s *rawState) { s.pref = []float64{1} }},
		{"long preference", func(s *rawState) { s.pref = []float64{0.5, 0.1, 0.1, 0.1, 0.1, 0.1} }},
		{"unnormalized preference", func(s *rawState) { s.pref = []float64{2, 2, 2, 2, 2} }},
		{"negative preference", func(s *rawState) { s.pref = []float64{1.5, -0.5, 0, 0, 0} }},
		{"watch counter arity", func(s *rawState) { s.watchBy = s.watchBy[:4] }},
		{"engagement counter arity", func(s *rawState) { s.engageBy = append(s.engageBy, 0) }},
		{"view counter arity", func(s *rawState) { s.viewsBy = []int{1} }},
		{"trailing bytes", func(s *rawState) { s.trailing = []byte{0} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := valid()
			tc.mut(&s)
			if err := decodeState(newTwin(t, cfg), s.encode()); !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("want checkpoint.ErrCorrupt, got %v", err)
			}
		})
	}
	t.Run("truncated", func(t *testing.T) {
		full := valid().encode()
		for n := range full {
			if err := decodeState(newTwin(t, cfg), full[:n]); !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("cut at %d of %d: want checkpoint.ErrCorrupt, got %v", n, len(full), err)
			}
		}
	})
}

// TestStateCodecConcurrent: EncodeState and AddPreferenceTo run
// against live collectors (the checkpoint-while-serving and the group
// abstraction overlaps) — a per-attribute collector and a batched
// CollectTicks + CollectViews one writing the same twin — without a
// race. Every encoding is a consistent state a fresh twin accepts,
// and every preference read is one whole snapshot, not a mix of two.
func TestStateCodecConcurrent(t *testing.T) {
	tw := newTwin(t, Config{HistoryLen: 16})
	back := newTwin(t, Config{HistoryLen: 16})
	uniform := behavior.NewUniformPreference() // a new twin's preference
	prefs := [2]behavior.Preference{{0.6, 0.1, 0.1, 0.1, 0.1}, {0.05, 0.05, 0.05, 0.05, 0.8}}
	// The preference reader runs from before the batched collector's
	// first write until after its last.
	readerUp, batched := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		defer close(batched)
		<-readerUp
		var batch [30]TickSample
		for i := 0; i < 200; i++ {
			for k := range batch {
				batch[k] = TickSample{CQI: 1 + (i+k)%15, X: float64(k), Y: float64(-i)}
			}
			if err := tw.CollectTicks(batch[:1+i%len(batch)], prefs[i%2]); err != nil {
				t.Errorf("batch %d: %v", i, err)
				return
			}
			views := []View{{Cat: video.News, WatchS: 3, Engagement: 0.2, Swiped: true}, {Cat: video.Game, WatchS: 9, Engagement: 1}}
			if err := tw.CollectViews(views[:1+i%len(views)]); err != nil {
				t.Errorf("views %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			tw.Tick()
			_, _ = tw.CollectChannel(1 + i%15)
			tw.CollectLocation(float64(i), float64(-i))
			_, _ = tw.CollectView(video.Music, 5, 0.5, i%2 == 0)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			if err := decodeState(back, encodeState(tw)); err != nil {
				t.Errorf("snapshot %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		sum := make(behavior.Preference, video.NumCategories)
		close(readerUp)
		for i := 0; ; i++ {
			select {
			case <-batched:
				return
			default:
			}
			for c := range sum {
				sum[c] = 0
			}
			tw.AddPreferenceTo(sum)
			if !slices.Equal(sum, uniform) && !slices.Equal(sum, prefs[0]) && !slices.Equal(sum, prefs[1]) {
				t.Errorf("read %d: preference %v is no collected snapshot", i, sum)
				return
			}
		}
	}()
	wg.Wait()
}
