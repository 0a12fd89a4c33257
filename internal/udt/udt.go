// Package udt implements user digital twins (paper §II-A): per-user
// edge-side stores of time-series status — channel condition,
// location, watching duration and preference — each collected at its
// own frequency. The grouping pipeline reads fixed-size feature
// windows out of the twins; the prediction pipeline reads
// watch-duration and preference summaries.
package udt

import (
	"errors"
	"fmt"

	"dtmsvs/internal/behavior"
	"dtmsvs/internal/vecmath"
	"dtmsvs/internal/video"
)

// ErrParam indicates an invalid twin parameter.
var ErrParam = errors.New("udt: invalid parameter")

// Attribute identifies one collected data stream.
type Attribute int

// The four attributes the paper collects into UDTs.
const (
	AttrChannel    Attribute = iota + 1 // CQI
	AttrLocation                        // (x, y) pairs — stored as two series
	AttrWatch                           // watch duration per view
	AttrPreference                      // preference vector snapshots
)

// String implements fmt.Stringer.
func (a Attribute) String() string {
	switch a {
	case AttrChannel:
		return "channel"
	case AttrLocation:
		return "location"
	case AttrWatch:
		return "watch"
	case AttrPreference:
		return "preference"
	default:
		return fmt.Sprintf("Attribute(%d)", int(a))
	}
}

// ring is a fixed-capacity float64 ring buffer over part of the twin's slab.
type ring struct {
	buf  []float64
	next int
	full bool
}

func (r *ring) add(x float64) {
	r.buf[r.next] = x
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

func (r *ring) len() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// windowInto fills out with the most recent len(out) values divided
// by div, oldest first. When fewer are stored, out is left-padded with
// the oldest value (or zeros when empty).
func (r *ring) windowInto(out []float64, div float64) {
	take := min(r.len(), len(out))
	if take == 0 {
		clear(out)
		return
	}
	start := r.next - take
	if start < 0 {
		start += len(r.buf)
	}
	// The window is at most two contiguous runs of the ring.
	recent := out[len(out)-take:]
	k := 0
	for _, v := range r.buf[start:min(start+take, len(r.buf))] {
		recent[k] = v / div
		k++
	}
	for _, v := range r.buf[:take-k] {
		recent[k] = v / div
		k++
	}
	for i := range out[:len(out)-take] {
		out[i] = recent[0]
	}
}

// Config sets twin capacities and collection frequencies.
type Config struct {
	// HistoryLen is the ring capacity per scalar series (default 256).
	// FeatureWindow(steps) reads only the newest steps samples, so any
	// capacity of at least steps yields the same window.
	HistoryLen int
	// ChannelEvery, LocationEvery, WatchEvery, PreferenceEvery are
	// collection periods in simulation ticks: the twin accepts a
	// sample only when the tick counter is a multiple of the period.
	// Defaults: 1, 2, 1, 5 — channel and watch duration change fast,
	// location slower, preference slowest, matching the paper's
	// "different data attributes are collected with different
	// frequencies".
	ChannelEvery, LocationEvery, WatchEvery, PreferenceEvery int
}

func (c Config) withDefaults() Config {
	if c.HistoryLen == 0 {
		c.HistoryLen = 256
	}
	if c.ChannelEvery == 0 {
		c.ChannelEvery = 1
	}
	if c.LocationEvery == 0 {
		c.LocationEvery = 2
	}
	if c.WatchEvery == 0 {
		c.WatchEvery = 1
	}
	if c.PreferenceEvery == 0 {
		c.PreferenceEvery = 5
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	d := c.withDefaults()
	if d.HistoryLen < 2 {
		return fmt.Errorf("history len %d: %w", d.HistoryLen, ErrParam)
	}
	for _, period := range []int{d.ChannelEvery, d.LocationEvery, d.WatchEvery, d.PreferenceEvery} {
		if period < 1 {
			return fmt.Errorf("collection period %d: %w", period, ErrParam)
		}
	}
	return nil
}

// Twin is one user's digital twin. The BS-side collector writes it —
// one CollectTicks call per batch of simulation ticks and one
// CollectViews call per batch of views, or Tick followed by the
// per-attribute Collect calls — and the grouping pipeline and the
// group abstraction read it.
//
// A Twin is not safe for concurrent use, and need not be: at any
// moment one task owns it. The engine (internal/sim) runs its stages
// as barriers, each fan-out returning before the next starts, and
// within a stage exactly one task touches a given twin:
//
//   - tick collection (CollectTicks) and warm-up browsing
//     (CollectView): the pool task of the user's index;
//   - streaming (CollectViews): the task of the one group whose
//     members list the user — groups partition the population;
//   - group abstraction (the by-category reads and AddPreferenceTo):
//     the task of that same group;
//   - windows and codes (FeatureWindowInto, through the grouping
//     builder's CodesInto and the engine's NearestGroups): the
//     goroutine of the cell whose builder runs;
//   - EncodeState and DecodeState: the owning cell's checkpoint or
//     restore task, or the worker boundary's handover pass.
//
// Two tasks touching one twin inside a stage would be an ownership
// bug, and a lock would only order them by the schedule; the race
// detector reports it instead.
type Twin struct {
	UserID int

	cfg Config

	// The five series share one backing array allocated by NewTwin.
	cqi        ring
	locX, locY ring
	watch      ring // watch durations (s)
	engage     ring // engagement ratios [0,1]
	pref       behavior.Preference
	// watchByCat accumulates total watch seconds per category. The
	// view counters below are cumulative over the twin's life: group
	// abstraction relies on that, so the swiping distributions sharpen
	// over time.
	watchByCat  [video.NumCategories]float64
	engageByCat [video.NumCategories]float64
	viewsByCat  [video.NumCategories]int
	swipes      int
	views       int

	ticks int
	// lastAt is the clock at each attribute's last accepted sample
	// (indexed by Attribute; slot 0 unused), so staleness is
	// ticks − lastAt and a tick touches only the clock.
	lastAt [AttrPreference + 1]int
}

// NewTwin constructs a twin for the user.
func NewTwin(userID int, cfg Config) (*Twin, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := cfg.withDefaults()
	t := &Twin{UserID: userID, cfg: c, pref: behavior.NewUniformPreference()}
	n := c.HistoryLen
	slab := make([]float64, NumFeatureChannels*n)
	for i, r := range t.rings() {
		r.buf = slab[i*n : (i+1)*n : (i+1)*n]
	}
	return t, nil
}

// Reuse resets the twin, in its own storage, to exactly the state
// NewTwin(userID, cfg) builds — every ring zeroed and empty, the
// uniform preference, every counter and clock zero — so a user who
// replaces one that left takes over its twin without a new slab. It
// returns false, leaving the twin as it was, when cfg is invalid or
// (after defaults) not the twin's own; the caller then builds a twin.
func (t *Twin) Reuse(userID int, cfg Config) bool {
	if cfg.Validate() != nil || cfg.withDefaults() != t.cfg {
		return false
	}
	for _, r := range t.rings() {
		clear(r.buf)
		r.next, r.full = 0, false
	}
	for i := range t.pref {
		t.pref[i] = 1.0 / video.NumCategories
	}
	t.UserID = userID
	clear(t.watchByCat[:])
	clear(t.engageByCat[:])
	clear(t.viewsByCat[:])
	clear(t.lastAt[:])
	t.swipes, t.views, t.ticks = 0, 0, 0
	return true
}

// rings lists the scalar series in feature-channel (and encoding)
// order.
func (t *Twin) rings() [NumFeatureChannels]*ring {
	return [...]*ring{&t.cqi, &t.locX, &t.locY, &t.watch, &t.engage}
}

// Tick advances the twin's collection clock by one simulation tick.
func (t *Twin) Tick() { t.ticks++ }

// Ticks returns the collection clock.
func (t *Twin) Ticks() int { return t.ticks }

// Staleness returns ticks since the attribute was last accepted (0
// for an attribute the twin does not collect).
func (t *Twin) Staleness(a Attribute) int {
	if a < AttrChannel || a > AttrPreference {
		return 0
	}
	return t.ticks - t.lastAt[a]
}

// due reports whether the attribute's collection period has elapsed.
func (t *Twin) due(period int) bool { return t.ticks%period == 0 }

func checkCQI(cqi int) error {
	if cqi < 1 || cqi > 15 {
		return fmt.Errorf("cqi %d: %w", cqi, ErrParam)
	}
	return nil
}

// TickSample is one simulation tick's channel and location reading,
// as the BS-side collector hands it to CollectTicks.
type TickSample struct {
	CQI  int
	X, Y float64
}

// CollectTicks runs one simulation tick per sample, in order: Tick,
// then CollectChannel, CollectLocation and CollectPreference, each
// accepted only when its period is due. The due phase lives in the
// tick clock, so a sequence split over any number of calls collects
// exactly what one call would. Every sample's CQI and the preference
// are validated before the first tick, due or not; on error the twin
// is unchanged.
//
// The due checks take no divide per tick: each attribute's phase is
// read from the clock once per call (ticks mod period) and then
// stepped, wrapping at the period, alongside the clock — an attribute
// is due exactly when its phase wraps to zero, which is when the
// clock is a multiple of its period.
func (t *Twin) CollectTicks(samples []TickSample, p behavior.Preference) error {
	for i, s := range samples {
		if err := checkCQI(s.CQI); err != nil {
			return fmt.Errorf("sample %d: %w", i, err)
		}
	}
	if err := p.Validate(); err != nil {
		return err
	}
	chEvery, locEvery, prefEvery := t.cfg.ChannelEvery, t.cfg.LocationEvery, t.cfg.PreferenceEvery
	ch, loc, pref := t.ticks%chEvery, t.ticks%locEvery, t.ticks%prefEvery
	for _, s := range samples {
		t.ticks++
		if ch++; ch == chEvery {
			ch = 0
			t.storeChannel(s.CQI)
		}
		if loc++; loc == locEvery {
			loc = 0
			t.storeLocation(s.X, s.Y)
		}
		if pref++; pref == prefEvery {
			pref = 0
			t.storePreference(p)
		}
	}
	return nil
}

// CollectChannel records a CQI sample if the channel period is due.
// Returns whether the sample was accepted.
func (t *Twin) CollectChannel(cqi int) (bool, error) {
	if err := checkCQI(cqi); err != nil {
		return false, err
	}
	if !t.due(t.cfg.ChannelEvery) {
		return false, nil
	}
	t.storeChannel(cqi)
	return true, nil
}

// storeChannel stores a validated, due CQI.
func (t *Twin) storeChannel(cqi int) {
	t.cqi.add(float64(cqi))
	t.lastAt[AttrChannel] = t.ticks
}

// CollectLocation records an (x, y) sample if due.
func (t *Twin) CollectLocation(x, y float64) bool {
	if !t.due(t.cfg.LocationEvery) {
		return false
	}
	t.storeLocation(x, y)
	return true
}

// storeLocation stores a due position.
func (t *Twin) storeLocation(x, y float64) {
	t.locX.add(x)
	t.locY.add(y)
	t.lastAt[AttrLocation] = t.ticks
}

// View is one completed view — category, seconds watched, watched
// fraction of the video and whether the user swiped away — as the
// collector hands it to CollectViews.
type View struct {
	Cat        video.Category
	WatchS     float64
	Engagement float64
	Swiped     bool
}

// valid reports whether a view's category is known and neither its
// watch time is negative nor its engagement outside [0, 1].
func (v View) valid() bool {
	return v.Cat.Index() >= 0 && !(v.WatchS < 0 || v.Engagement < 0 || v.Engagement > 1)
}

// invalid describes why valid rejected v.
func (v View) invalid() error {
	if v.Cat.Index() < 0 {
		return fmt.Errorf("category %v: %w", v.Cat, ErrParam)
	}
	return fmt.Errorf("watch %v engagement %v: %w", v.WatchS, v.Engagement, ErrParam)
}

// CollectView records a completed view (watch duration, engagement,
// category, swipe) if the watch period is due. View counters used for
// interval-level swiping statistics are always updated, matching the
// paper's separation between raw status series and abstracted
// group-level data.
func (t *Twin) CollectView(cat video.Category, watchS, engagement float64, swiped bool) (bool, error) {
	v := View{Cat: cat, WatchS: watchS, Engagement: engagement, Swiped: swiped}
	if !v.valid() {
		return false, v.invalid()
	}
	due := t.due(t.cfg.WatchEvery)
	t.storeView(v, due)
	return due, nil
}

// CollectViews records views in order, exactly as one CollectView
// call per view would: the view counters take every
// view, the watch and engagement series only when the watch period is
// due. Views do not advance the clock, so one due check serves the
// whole batch. Every view is validated before the first is recorded;
// on error the twin is unchanged.
func (t *Twin) CollectViews(views []View) error {
	for i, v := range views {
		if !v.valid() {
			return fmt.Errorf("view %d: %w", i, v.invalid())
		}
	}
	due := t.due(t.cfg.WatchEvery)
	for _, v := range views {
		t.storeView(v, due)
	}
	return nil
}

// storeView records a validated view; due says whether the watch
// period is due.
func (t *Twin) storeView(v View, due bool) {
	idx := v.Cat.Index()
	t.watchByCat[idx] += v.WatchS
	t.engageByCat[idx] += v.Engagement
	t.viewsByCat[idx]++
	t.views++
	if v.Swiped {
		t.swipes++
	}
	if due {
		t.watch.add(v.WatchS)
		t.engage.add(v.Engagement)
		t.lastAt[AttrWatch] = t.ticks
	}
}

// CollectPreference snapshots the user's preference vector if due.
func (t *Twin) CollectPreference(p behavior.Preference) (bool, error) {
	if err := p.Validate(); err != nil {
		return false, err
	}
	if !t.due(t.cfg.PreferenceEvery) {
		return false, nil
	}
	t.storePreference(p)
	return true, nil
}

// storePreference copies a validated, due preference into the twin's
// own vector.
func (t *Twin) storePreference(p behavior.Preference) {
	copy(t.pref, p)
	t.lastAt[AttrPreference] = t.ticks
}

// Preference returns the last collected preference snapshot.
func (t *Twin) Preference() behavior.Preference {
	return t.pref.Clone()
}

// AddPreferenceTo adds the last collected preference snapshot into
// dst element by element, in category order, without copying it; dst
// must hold at least video.NumCategories entries.
func (t *Twin) AddPreferenceTo(dst behavior.Preference) {
	for i, v := range t.pref {
		dst[i] += v
	}
}

// WatchByCategory returns the cumulative watch seconds per category.
func (t *Twin) WatchByCategory() [video.NumCategories]float64 {
	return t.watchByCat
}

// EngagementByCategory returns the cumulative summed engagement
// fractions per category; divided by the view counts it yields the
// mean watched fraction per category — the direct input to the group
// swiping-probability distribution.
func (t *Twin) EngagementByCategory() [video.NumCategories]float64 {
	return t.engageByCat
}

// ViewsByCategory returns the cumulative view counts per category.
func (t *Twin) ViewsByCategory() [video.NumCategories]int {
	return t.viewsByCat
}

// SwipeStats returns the cumulative (swipes, views).
func (t *Twin) SwipeStats() (swipes, views int) {
	return t.swipes, t.views
}

// NumFeatureChannels is the number of channels in a feature window:
// CQI, x, y, watch duration, engagement.
const NumFeatureChannels = 5

// FeatureWindow returns a flattened channel-major window of the last
// steps samples per channel: [cqi..., x..., y..., watch..., engage...].
// Values are scaled to roughly [0, 1] so the CNN sees balanced inputs:
// CQI/15, x/scale, y/scale, watch/60 s, engagement as-is.
func (t *Twin) FeatureWindow(steps int, posScale float64) (vecmath.Vec, error) {
	if steps <= 0 {
		return nil, fmt.Errorf("window of %d steps: %w", steps, ErrParam)
	}
	out := make(vecmath.Vec, NumFeatureChannels*steps)
	if err := t.FeatureWindowInto(out, steps, posScale); err != nil {
		return nil, err
	}
	return out, nil
}

// FeatureWindowInto is FeatureWindow written into dst, which must hold
// exactly NumFeatureChannels·steps values, so a batch of windows can
// be staged in one caller-owned matrix.
func (t *Twin) FeatureWindowInto(dst vecmath.Vec, steps int, posScale float64) error {
	switch {
	case steps <= 0:
		return fmt.Errorf("window of %d steps: %w", steps, ErrParam)
	case posScale <= 0:
		return fmt.Errorf("position scale %v: %w", posScale, ErrParam)
	case len(dst) != NumFeatureChannels*steps:
		return fmt.Errorf("window of %d steps into %d values: %w", steps, len(dst), ErrParam)
	}
	divs := [NumFeatureChannels]float64{15, posScale, posScale, 60, 1}
	for i, r := range t.rings() {
		r.windowInto(dst[i*steps:(i+1)*steps], divs[i])
	}
	return nil
}
