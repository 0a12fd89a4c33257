package udt

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dtmsvs/internal/behavior"
	"dtmsvs/internal/video"
)

// coprime has pairwise co-prime collection periods, so over 30 ticks
// every combination of due attributes occurs, and a ring short enough
// to wrap many times.
var coprime = Config{HistoryLen: 7, ChannelEvery: 2, LocationEvery: 3, WatchEvery: 1, PreferenceEvery: 5}

// TestCollectTickMatchesSeparateCalls: one tick through CollectTicks
// is exactly Tick + CollectChannel + CollectLocation +
// CollectPreference. A random collector sequence, with views in
// between, is applied both ways; the encoded state
// — clock, rings, preference, counters, staleness — must stay
// byte-identical throughout.
func TestCollectTickMatchesSeparateCalls(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		one, four := newTwin(t, coprime), newTwin(t, coprime)
		for step := 0; step < 400; step++ {
			cqi := 1 + rng.Intn(15)
			x, y := rng.Float64()*2000, rng.NormFloat64()*500
			pref, err := behavior.NewRandomPreference(rng, video.AllCategories()[rng.Intn(video.NumCategories)], 1+3*rng.Float64())
			if err != nil {
				t.Fatal(err)
			}
			if err := one.CollectTicks([]TickSample{{cqi, x, y}}, pref); err != nil {
				t.Fatal(err)
			}
			four.Tick()
			if _, err := four.CollectChannel(cqi); err != nil {
				t.Fatal(err)
			}
			four.CollectLocation(x, y)
			if _, err := four.CollectPreference(pref); err != nil {
				t.Fatal(err)
			}
			switch rng.Intn(32) {
			case 0, 1, 2, 3, 4, 5, 6, 7:
				cat, w, e, sw := video.AllCategories()[rng.Intn(video.NumCategories)], rng.Float64()*40, rng.Float64(), rng.Intn(2) == 0
				for _, tw := range []*Twin{one, four} {
					if _, err := tw.CollectView(cat, w, e, sw); err != nil {
						t.Fatal(err)
					}
				}
			}
			if !bytes.Equal(encodeState(one), encodeState(four)) {
				t.Fatalf("seed %d step %d: encoded state differs", seed, step)
			}
			for a := AttrChannel; a <= AttrPreference; a++ {
				if one.Staleness(a) != four.Staleness(a) {
					t.Fatalf("seed %d step %d: staleness %v: %d vs %d", seed, step, a, one.Staleness(a), four.Staleness(a))
				}
			}
		}
	}
}

// TestCollectTickValidation: both inputs of CollectTicks are checked on
// every tick, due or not, fail typed, and a rejected call leaves the
// twin as it was.
func TestCollectTickValidation(t *testing.T) {
	tw := newTwin(t, coprime)
	good := behavior.NewUniformPreference()
	if err := tw.CollectTicks([]TickSample{{7, 1, 2}}, good); err != nil {
		t.Fatal(err)
	}
	before := encodeState(tw)
	// Tick 2 is not due for the preference (period 5): still validated.
	for _, cqi := range []int{0, 16, -1} {
		if err := tw.CollectTicks([]TickSample{{cqi, 1, 2}}, good); !errors.Is(err, ErrParam) {
			t.Fatalf("cqi %d: want ErrParam, got %v", cqi, err)
		}
	}
	for _, bad := range []behavior.Preference{nil, {1}, {0.5, 0.5, 0.5, 0.5, 0.5}, {1.2, -0.2, 0, 0, 0}} {
		if err := tw.CollectTicks([]TickSample{{7, 1, 2}}, bad); !errors.Is(err, behavior.ErrParam) {
			t.Fatalf("preference %v: want behavior.ErrParam, got %v", bad, err)
		}
	}
	// One bad sample anywhere in a batch fails the call before its
	// first tick: the good samples ahead of it are not kept either.
	for k := 0; k < 8; k++ {
		batch := make([]TickSample, 8)
		for i := range batch {
			batch[i] = TickSample{CQI: 1 + i, X: float64(i), Y: 1}
		}
		batch[k].CQI = 16 + k
		if err := tw.CollectTicks(batch, good); !errors.Is(err, ErrParam) {
			t.Fatalf("bad sample %d of 8: want ErrParam, got %v", k, err)
		}
	}
	if !bytes.Equal(before, encodeState(tw)) {
		t.Fatal("rejected ticks changed the twin")
	}
}

// TestCollectTickCopiesPreference: the twin keeps its own copy of the
// snapshot, not the caller's slice.
func TestCollectTickCopiesPreference(t *testing.T) {
	tw := newTwin(t, everyTick)
	p := behavior.Preference{0.6, 0.1, 0.1, 0.1, 0.1}
	if err := tw.CollectTicks([]TickSample{{9, 0, 0}}, p); err != nil {
		t.Fatal(err)
	}
	p[0], p[1] = 0.1, 0.6
	if got := tw.Preference(); got[0] != 0.6 || got[1] != 0.1 {
		t.Fatalf("twin preference %v follows the caller's slice", got)
	}
}

// TestCollectTicksSplitInvariant: the due phase lives in the twin's
// clock, not in the batch, so a tick sequence collects the same state
// whether it arrives as one call, one tick per call, fixed chunks of
// 64 or random splits with empty calls among them.
func TestCollectTicksSplitInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seq := make([]TickSample, 400)
	for i := range seq {
		seq[i] = TickSample{CQI: 1 + rng.Intn(15), X: rng.Float64() * 2000, Y: rng.NormFloat64() * 500}
	}
	pref, err := behavior.NewRandomPreference(rng, video.Music, 2)
	if err != nil {
		t.Fatal(err)
	}
	collect := func(splits []int) *Twin {
		tw := newTwin(t, coprime)
		at := 0
		for _, n := range splits {
			if err := tw.CollectTicks(seq[at:at+n], pref); err != nil {
				t.Fatal(err)
			}
			at += n
		}
		if err := tw.CollectTicks(seq[at:], pref); err != nil {
			t.Fatal(err)
		}
		return tw
	}
	whole := collect(nil)
	if whole.Ticks() != len(seq) {
		t.Fatalf("one call: clock %d, want %d", whole.Ticks(), len(seq))
	}
	ways := map[string][]int{}
	for i := 0; i < len(seq); i++ {
		ways["one tick per call"] = append(ways["one tick per call"], 1)
	}
	for i := 0; i+64 <= len(seq); i += 64 {
		ways["chunks of 64"] = append(ways["chunks of 64"], 64)
	}
	for trial := 0; trial < 20; trial++ {
		var splits []int
		for left := len(seq); left > 0; {
			n := min(left, rng.Intn(3)*rng.Intn(40)) // a third of the calls empty
			splits = append(splits, n)
			left -= n
		}
		ways[fmt.Sprintf("random split %d", trial)] = splits
	}
	want := encodeState(whole)
	for name, splits := range ways {
		tw := collect(splits)
		if !bytes.Equal(encodeState(tw), want) {
			t.Fatalf("%s: encoded state differs from one call", name)
		}
		for a := AttrChannel; a <= AttrPreference; a++ {
			if tw.Staleness(a) != whole.Staleness(a) {
				t.Fatalf("%s: staleness %v: %d vs %d", name, a, tw.Staleness(a), whole.Staleness(a))
			}
		}
	}
}

// TestCollectTicksPhaseMatchesModuloOracle: CollectTicks steps a phase
// counter per attribute instead of taking the clock modulo each period
// every tick. For every combination of channel, location and
// preference periods in {1, 2, 3, 5, 7}, a tick sequence sent in
// batches of every length from 1 to past its end — so batches start at
// every phase of every period — must leave the twin exactly as the
// per-tick calls do, whose due check is the modulo of the clock.
func TestCollectTicksPhaseMatchesModuloOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	seq := make([]TickSample, 36)
	for i := range seq {
		seq[i] = TickSample{CQI: 1 + rng.Intn(15), X: rng.Float64() * 2000, Y: rng.NormFloat64() * 500}
	}
	pref, err := behavior.NewRandomPreference(rng, video.Sports, 2)
	if err != nil {
		t.Fatal(err)
	}
	periods := []int{1, 2, 3, 5, 7}
	for _, ch := range periods {
		for _, loc := range periods {
			for _, pe := range periods {
				cfg := Config{HistoryLen: 11, ChannelEvery: ch, LocationEvery: loc, PreferenceEvery: pe}
				oracle := newTwin(t, cfg)
				for _, s := range seq {
					oracle.Tick()
					if _, err := oracle.CollectChannel(s.CQI); err != nil {
						t.Fatal(err)
					}
					oracle.CollectLocation(s.X, s.Y)
					if _, err := oracle.CollectPreference(pref); err != nil {
						t.Fatal(err)
					}
				}
				want := encodeState(oracle)
				for size := 1; size <= len(seq)+1; size++ {
					tw := newTwin(t, cfg)
					for lo := 0; lo < len(seq); lo += size {
						if err := tw.CollectTicks(seq[lo:min(lo+size, len(seq))], pref); err != nil {
							t.Fatal(err)
						}
					}
					if !bytes.Equal(encodeState(tw), want) {
						t.Fatalf("periods %d/%d/%d, batches of %d: state differs from the per-tick oracle", ch, loc, pe, size)
					}
					for a := AttrChannel; a <= AttrPreference; a++ {
						if tw.Staleness(a) != oracle.Staleness(a) {
							t.Fatalf("periods %d/%d/%d, batches of %d: staleness %v %d, want %d", ch, loc, pe, size, a, tw.Staleness(a), oracle.Staleness(a))
						}
					}
				}
			}
		}
	}
}

// TestCollectViewsMatchesOneAtATime: CollectViews over any split of a
// view sequence leaves the twin exactly as one CollectView per view,
// at watch periods 1, 2 and 3, with ticks between the intervals so the
// watch series meets due and skipped clocks alike. A batch holding one
// invalid view, anywhere, is rejected whole: the encoded state does
// not move.
func TestCollectViewsMatchesOneAtATime(t *testing.T) {
	bad := []View{
		{Cat: video.Category(99), WatchS: 1, Engagement: 0.5},
		{Cat: video.Music, WatchS: -1, Engagement: 0.5},
		{Cat: video.Music, WatchS: 1, Engagement: 1.5},
		{Cat: video.Music, WatchS: 1, Engagement: -0.1},
	}
	for _, every := range []int{1, 2, 3} {
		cfg := Config{HistoryLen: 7, WatchEvery: every}
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			one, batched := newTwin(t, cfg), newTwin(t, cfg)
			for interval := 0; interval < 40; interval++ {
				name := fmt.Sprintf("watch every %d, seed %d, interval %d", every, seed, interval)
				views := make([]View, rng.Intn(24))
				for i := range views {
					e := rng.Float64()
					views[i] = View{Cat: video.AllCategories()[rng.Intn(video.NumCategories)], WatchS: 40 * e, Engagement: e, Swiped: e < 0.999}
				}
				for _, v := range views {
					if _, err := one.CollectView(v.Cat, v.WatchS, v.Engagement, v.Swiped); err != nil {
						t.Fatal(err)
					}
				}
				if len(views) > 0 && rng.Intn(3) == 0 {
					before := encodeState(batched)
					poisoned := append([]View(nil), views...)
					poisoned[rng.Intn(len(poisoned))] = bad[rng.Intn(len(bad))]
					if err := batched.CollectViews(poisoned); !errors.Is(err, ErrParam) {
						t.Fatalf("%s: invalid view: %v, want ErrParam", name, err)
					}
					if !bytes.Equal(before, encodeState(batched)) {
						t.Fatalf("%s: a rejected batch moved the twin", name)
					}
				}
				for rest := views; len(rest) > 0; {
					k := 1 + rng.Intn(len(rest))
					if err := batched.CollectViews(rest[:k]); err != nil {
						t.Fatal(err)
					}
					rest = rest[k:]
				}
				if !bytes.Equal(encodeState(one), encodeState(batched)) {
					t.Fatalf("%s: encoded state differs", name)
				}
				for k := rng.Intn(4); k > 0; k-- {
					one.Tick()
					batched.Tick()
				}
			}
		}
	}
}

func TestStalenessUnknownAttribute(t *testing.T) {
	tw := newTwin(t, coprime)
	for i := 0; i < 3; i++ {
		tw.Tick()
	}
	if tw.Staleness(AttrWatch) != 3 {
		t.Fatalf("watch staleness %d, want 3", tw.Staleness(AttrWatch))
	}
	for _, a := range []Attribute{0, 99, -1} {
		if s := tw.Staleness(a); s != 0 {
			t.Fatalf("staleness of %v = %d, want 0", a, s)
		}
	}
}

// TestCollectTickAllocFree: no CollectTicks call allocates, whichever
// attributes are due on its ticks. Each run spans ten one-tick calls
// and one ten-tick call — every due-combination of the default periods
// (1, 2, 1, 5) both ways — because AllocsPerRun rounds down.
func TestCollectTickAllocFree(t *testing.T) {
	tw := newTwin(t, Config{})
	p := behavior.NewUniformPreference()
	var batch [10]TickSample
	for i := range batch {
		batch[i] = TickSample{CQI: 1 + i, X: float64(i), Y: 3}
	}
	if n := testing.AllocsPerRun(100, func() {
		for i := range batch {
			if err := tw.CollectTicks(batch[i:i+1], p); err != nil {
				t.Fatal(err)
			}
		}
		if err := tw.CollectTicks(batch[:], p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("%v allocations per ten ticks, want 0", n)
	}
}

// TestSlabRingsDisjoint: the five series share one backing array;
// filling any one to capacity and beyond must leave the others as
// they were, and no ring's slice can grow into its neighbour.
func TestSlabRingsDisjoint(t *testing.T) {
	tw := newTwin(t, coprime)
	n := coprime.HistoryLen
	for i, r := range tw.rings() {
		if len(r.buf) != n || cap(r.buf) != n {
			t.Fatalf("ring %d: len %d cap %d, want %d/%d", i, len(r.buf), cap(r.buf), n, n)
		}
	}
	for i, r := range tw.rings() {
		for j := 0; j < 2*n+3; j++ {
			r.add(float64(100*(i+1) + j))
		}
		for k, other := range tw.rings() {
			want := 0.0 // not yet written
			if k < i {
				want = float64(100*(k+1) + 2*n + 2) // its own last value
			}
			newest := []float64{-1}
			other.windowInto(newest, 1)
			if k != i && newest[0] != want {
				t.Fatalf("filling ring %d changed ring %d: newest %v, want %v", i, k, newest[0], want)
			}
		}
	}
	for i, r := range tw.rings() {
		for j, v := range r.buf {
			if int(v)/100 != i+1 {
				t.Fatalf("ring %d slot %d holds %v, not one of its own values", i, j, v)
			}
		}
	}
}

// windowRef is the ring window as first written — one modulo per
// element into a fresh slice — kept as the reference for windowInto.
func windowRef(r *ring, n int) []float64 {
	out := make([]float64, n)
	have := r.len()
	if have == 0 {
		return out
	}
	take := min(have, n)
	start := r.next - take
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < take; i++ {
		out[n-take+i] = r.buf[(start+i)%len(r.buf)]
	}
	for i := 0; i < n-take; i++ {
		out[i] = out[n-take]
	}
	return out
}

// TestFeatureWindowMatchesReference: at every fill level and wrap
// position, for windows shorter than, equal to and longer than the
// ring, FeatureWindow equals the five reference windows scaled and
// concatenated, bit for bit.
func TestFeatureWindowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tw := newTwin(t, Config{HistoryLen: 6, ChannelEvery: 1, LocationEvery: 2, WatchEvery: 1, PreferenceEvery: 1})
	const posScale = 1700.0
	divs := []float64{15, posScale, posScale, 60, 1}
	for tick := 0; tick < 40; tick++ {
		for _, steps := range []int{1, 4, 6, 9} {
			got, err := tw.FeatureWindow(steps, posScale)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != NumFeatureChannels*steps {
				t.Fatalf("window of %d values, want %d", len(got), NumFeatureChannels*steps)
			}
			for c, r := range tw.rings() {
				for i, v := range windowRef(r, steps) {
					if got[c*steps+i] != v/divs[c] {
						t.Fatalf("tick %d steps %d channel %d[%d]: %v, want %v", tick, steps, c, i, got[c*steps+i], v/divs[c])
					}
				}
			}
		}
		if err := tw.CollectTicks([]TickSample{{1 + rng.Intn(15), rng.Float64() * posScale, rng.Float64() * posScale}}, behavior.NewUniformPreference()); err != nil {
			t.Fatal(err)
		}
		if tick%3 != 0 {
			if _, err := tw.CollectView(video.News, rng.Float64()*50, rng.Float64(), false); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestFeatureWindowCapacityInvariant: a window reads only the newest
// samples, so a ring that holds the window yields, bit for bit, the
// window of every larger ring. One stream under the coprime periods
// is collected into twins of capacity max(2, W), W+1, 4W and 120, and
// FeatureWindow(W) is compared after every tick, so each ring of the
// smallest twin is seen empty, partly filled, exactly full and wrapped
// several times.
func TestFeatureWindowCapacityInvariant(t *testing.T) {
	const posScale = 1300.0
	for _, w := range []int{1, 2, 16} {
		rng := rand.New(rand.NewSource(int64(w)))
		caps := []int{max(2, w), w + 1, 4 * w, 120}
		twins := make([]*Twin, len(caps))
		for i, n := range caps {
			cfg := coprime
			cfg.HistoryLen = n
			twins[i] = newTwin(t, cfg)
		}
		pref := behavior.NewUniformPreference()
		for tick := 0; tick <= 8*max(2, w)*coprime.LocationEvery; tick++ {
			want, err := twins[0].FeatureWindow(w, posScale)
			if err != nil {
				t.Fatal(err)
			}
			for i, tw := range twins[1:] {
				got, err := tw.FeatureWindow(w, posScale)
				if err != nil {
					t.Fatal(err)
				}
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("W %d tick %d: capacity %d [%d] = %v, capacity %d has %v",
							w, tick, caps[i+1], j, got[j], caps[0], want[j])
					}
				}
			}
			s := TickSample{CQI: 1 + rng.Intn(15), X: rng.Float64() * posScale, Y: rng.NormFloat64() * posScale}
			view := rng.Intn(3) != 0
			cat, watch, engage := video.AllCategories()[rng.Intn(video.NumCategories)], rng.Float64()*60, rng.Float64()
			for _, tw := range twins {
				if err := tw.CollectTicks([]TickSample{s}, pref); err != nil {
					t.Fatal(err)
				}
				if view {
					if _, err := tw.CollectView(cat, watch, engage, false); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}
