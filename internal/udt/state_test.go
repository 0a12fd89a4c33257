package udt

import (
	"bytes"
	"errors"
	"math"
	"reflect"
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

// collectFor runs n ticks of every attribute into tw, the values keyed
// by salt, so two twins fed the same (n, salt) see the same samples.
func collectFor(t *testing.T, tw *Twin, n, salt int) {
	t.Helper()
	pref := behavior.Preference{0.1, 0.2, 0.3, 0.15, 0.25}
	for tick := 1; tick <= n; tick++ {
		v := tick + salt
		if err := tw.CollectTicks([]TickSample{{CQI: 1 + v%15, X: float64(3 * v), Y: float64(-v)}}, pref); err != nil {
			t.Fatal(err)
		}
		if err := tw.CollectViews([]View{{Cat: video.AllCategories()[v%video.NumCategories], WatchS: float64(v % 7), Engagement: 0.25, Swiped: v%3 == 0}}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReuseIsNewTwin: a stepped twin — rings wrapped, partly filled or
// empty, counters and clocks advanced — that is reused for another
// user is the twin NewTwin builds for that user: equal field by field
// (ring storage included), encoding to the same bytes, and collecting
// the same samples into the same bytes afterwards. Reuse allocates
// nothing, and refuses, untouched, a config that is not the twin's.
func TestReuseIsNewTwin(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		steps int
	}{
		{"wrapped", Config{HistoryLen: 4, ChannelEvery: 1, LocationEvery: 2, WatchEvery: 1, PreferenceEvery: 3}, 11},
		{"partly filled", Config{HistoryLen: 16}, 5},
		{"never stepped", Config{HistoryLen: 16}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tw, err := NewTwin(3, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			collectFor(t, tw, tc.steps, 0)
			if !tw.Reuse(9, tc.cfg) {
				t.Fatal("Reuse refused the twin's own config")
			}
			fresh, err := NewTwin(9, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tw, fresh) {
				t.Fatalf("reused twin %+v, NewTwin builds %+v", *tw, *fresh)
			}
			if !bytes.Equal(encodeState(tw), encodeState(fresh)) {
				t.Fatal("reused twin encodes unlike NewTwin's")
			}
			collectFor(t, tw, 7, 100)
			collectFor(t, fresh, 7, 100)
			if !bytes.Equal(encodeState(tw), encodeState(fresh)) {
				t.Fatal("reused twin collects unlike NewTwin's")
			}
			if n := testing.AllocsPerRun(10, func() { tw.Reuse(9, tc.cfg) }); n != 0 {
				t.Fatalf("Reuse allocates %.0f times", n)
			}
		})
	}

	tw, err := NewTwin(3, everyTick)
	if err != nil {
		t.Fatal(err)
	}
	collectFor(t, tw, 6, 0)
	before := encodeState(tw)
	for _, cfg := range []Config{{HistoryLen: 17}, {ChannelEvery: 2}, {HistoryLen: 1}} {
		if tw.Reuse(9, cfg) {
			t.Fatalf("Reuse took config %+v for a twin of %+v", cfg, tw.cfg)
		}
		if !bytes.Equal(encodeState(tw), before) {
			t.Fatalf("a refused Reuse (config %+v) changed the twin", cfg)
		}
	}
}
