// Package predict implements the paper's group-based resource demand
// prediction (§II-B2). From the UDTs of a multicast group it abstracts
// (a) the group's swiping probability distribution per video category
// — the CDF of the fraction of a video watched before swiping — and
// (b) the recommended video list (video popularity × group
// preference). From those it derives expected engagement time, video
// traffic, and computing consumption to predict the radio and
// computing resource demand of the next reservation interval.
// EWMA/moving-average/last-value baselines are provided for the
// predictor-ablation experiments.
package predict

import (
	"errors"
	"fmt"
	"math"

	"dtmsvs/internal/behavior"
	"dtmsvs/internal/segment"
	"dtmsvs/internal/stats"
	"dtmsvs/internal/udt"
	"dtmsvs/internal/video"
)

// ErrInput indicates invalid prediction input.
var ErrInput = errors.New("predict: invalid input")

// SwipeBins is the resolution of the swiping-probability CDF over the
// normalized watch fraction [0, 1].
const SwipeBins = 20

// SwipeDistribution is a multicast group's per-category swiping
// probability distribution: for category c, CDF[c][i] is the
// probability a group member swipes at or before watch fraction
// (i+1)/SwipeBins of a video. Flat-rising CDFs mean sticky content
// (News in Fig. 3a); steep CDFs mean fast swiping (Game).
type SwipeDistribution struct {
	CDF [video.NumCategories][]float64
	// Samples counts the observations behind each category's CDF.
	Samples [video.NumCategories]int
}

// GroupObservation is one member's view event, as read back from UDTs.
type GroupObservation struct {
	Category video.Category
	// WatchFraction in [0,1] of the video watched before the swipe
	// (1 = watched to the end).
	WatchFraction float64
}

// swipeFold is the one construction of a SwipeDistribution: weighted
// watch fractions folded into a histogram per category.
type swipeFold [video.NumCategories]*stats.Histogram

func newSwipeFold() (*swipeFold, error) {
	var f swipeFold
	for i := range f {
		h, err := stats.NewHistogram(0, 1.0000001, SwipeBins)
		if err != nil {
			return nil, err
		}
		f[i] = h
	}
	return &f, nil
}

// add folds n views of the category, each watched to frac.
func (f *swipeFold) add(cat video.Category, frac float64, n int) error {
	idx := cat.Index()
	if idx < 0 {
		return fmt.Errorf("category %v: %w", cat, ErrInput)
	}
	if frac < 0 || frac > 1 || math.IsNaN(frac) {
		return fmt.Errorf("watch fraction %v: %w", frac, ErrInput)
	}
	f[idx].AddN(frac, n)
	return nil
}

// distribution reads the CDFs out. Categories with no observations
// get a uniform CDF (maximum uncertainty) so downstream expectations
// stay defined.
func (f *swipeFold) distribution() *SwipeDistribution {
	var d SwipeDistribution
	for i, h := range f {
		d.Samples[i] = h.Total()
		if h.Total() == 0 {
			cdf := make([]float64, SwipeBins)
			for j := range cdf {
				cdf[j] = float64(j+1) / SwipeBins
			}
			d.CDF[i] = cdf
			continue
		}
		d.CDF[i] = h.CDF()
	}
	return &d
}

// NewSwipeDistribution estimates the distribution from observations,
// each at weight one.
func NewSwipeDistribution(obs []GroupObservation) (*SwipeDistribution, error) {
	f, err := newSwipeFold()
	if err != nil {
		return nil, err
	}
	for _, o := range obs {
		if err := f.add(o.Category, o.WatchFraction, 1); err != nil {
			return nil, err
		}
	}
	return f.distribution(), nil
}

// ExpectedWatchFraction returns E[watch fraction] for the category:
// ∫₀¹ (1 − F(t)) dt evaluated on the binned CDF.
func (d *SwipeDistribution) ExpectedWatchFraction(cat video.Category) (float64, error) {
	idx := cat.Index()
	if idx < 0 {
		return 0, fmt.Errorf("category %v: %w", cat, ErrInput)
	}
	var e float64
	for _, f := range d.CDF[idx] {
		e += (1 - f) / SwipeBins
	}
	// Survivors at the last bin edge watched to completion; the CDF
	// construction puts them in the final bin, so e already counts
	// everything up to 1.0. Add the bin-width correction for the mass
	// that never swipes within [0,1): approximate by half a bin.
	e += 0.5 / SwipeBins
	if e > 1 {
		e = 1
	}
	return e, nil
}

// ExpectedMaxWatchFraction returns E[max of m i.i.d. watch fractions]
// = ∫₀¹ (1 − F(t)^m) dt — the expected multicast transmission length
// of a video when the BS keeps transmitting until the last of m group
// members swipes.
func (d *SwipeDistribution) ExpectedMaxWatchFraction(cat video.Category, m int) (float64, error) {
	idx := cat.Index()
	if idx < 0 {
		return 0, fmt.Errorf("category %v: %w", cat, ErrInput)
	}
	if m <= 0 {
		return 0, fmt.Errorf("group size %d: %w", m, ErrInput)
	}
	var e float64
	for _, f := range d.CDF[idx] {
		e += (1 - math.Pow(f, float64(m))) / SwipeBins
	}
	e += 0.5 / SwipeBins
	if e > 1 {
		e = 1
	}
	return e, nil
}

// ExpectedMaxWasteFraction returns the expected *wasted* fraction of
// a video under segment-level prefetching: the group's transmission
// covers the last swiper's watch prefix rounded up to segment
// boundaries plus the prefetch window (segment.Plan); the overshoot
// beyond the swipe point is waste. The expectation is over Tmax, the
// maximum of m i.i.d. watch fractions (CDF F^m). durS is the video
// duration, segS the segment length and depth the prefetch window in
// segments.
func (d *SwipeDistribution) ExpectedMaxWasteFraction(cat video.Category, m int, durS, segS float64, depth int) (float64, error) {
	idx := cat.Index()
	if idx < 0 {
		return 0, fmt.Errorf("category %v: %w", cat, ErrInput)
	}
	if m <= 0 {
		return 0, fmt.Errorf("group size %d: %w", m, ErrInput)
	}
	if durS <= 0 || segS <= 0 || depth < 0 {
		return 0, fmt.Errorf("dur %v seg %v depth %d: %w", durS, segS, depth, ErrInput)
	}
	cdf := d.CDF[idx]
	var e float64
	prev := 0.0
	for i, f := range cdf {
		fm := math.Pow(f, float64(m))
		pmf := fm - prev
		prev = fm
		if pmf <= 0 {
			continue
		}
		t := float64(i+1) / float64(len(cdf)) // bin upper edge
		_, waste, perr := segment.Plan(t*durS, durS, segS, depth)
		if perr != nil {
			return 0, perr
		}
		e += pmf * waste / durS
	}
	if e < 0 {
		e = 0
	}
	return e, nil
}

// GroupProfile is the abstracted group-level information of §II-B2.
type GroupProfile struct {
	// Swipe is the group's swiping probability distribution.
	Swipe *SwipeDistribution
	// Preference is the mean member preference (category mix the
	// group will be served).
	Preference behavior.Preference
	// Recommended is the ranked recommendation list.
	Recommended []*video.Video
	// Size is the number of members.
	Size int
	// MeanEngagementS is the average watch seconds per view observed
	// in the last interval.
	MeanEngagementS float64
}

// categoryMeans calls fn once per twin and category the twin has
// viewed, with the twin's mean watched fraction of that category
// (clamped to [0,1]) and its view count — the swipe distribution's
// input as the UDTs hold it.
func categoryMeans(twins []*udt.Twin, fn func(cat video.Category, frac float64, views int) error) error {
	cats := video.AllCategories()
	for _, tw := range twins {
		engage := tw.EngagementByCategory()
		views := tw.ViewsByCategory()
		for ci, n := range views {
			if n == 0 {
				continue
			}
			frac := engage[ci] / float64(n)
			if frac > 1 {
				frac = 1
			}
			if frac < 0 {
				frac = 0
			}
			if err := fn(cats[ci], frac, n); err != nil {
				return err
			}
		}
	}
	return nil
}

// ObservationsFromTwins expands the twins' accumulated per-category
// engagement fractions into one observation per view: each user
// contributes, per category, their mean watched fraction once for
// every view counted. The engine does not call it — BuildGroupProfile
// folds the same (fraction, count) pairs without expanding them — and
// because the view counters are cumulative the result grows with the
// length of the run; it is the reference the fold is tested against.
func ObservationsFromTwins(twins []*udt.Twin) ([]GroupObservation, error) {
	var obs []GroupObservation
	err := categoryMeans(twins, func(cat video.Category, frac float64, views int) error {
		for v := 0; v < views; v++ {
			obs = append(obs, GroupObservation{Category: cat, WatchFraction: frac})
		}
		return nil
	})
	return obs, err
}

// BuildGroupProfile abstracts one multicast group from its members'
// twins: swipe distribution, mean preference, recommendation list
// (popularity × preference score) and mean engagement.
func BuildGroupProfile(twins []*udt.Twin, cat *video.Catalog, topN int) (*GroupProfile, error) {
	if len(twins) == 0 {
		return nil, fmt.Errorf("empty group: %w", ErrInput)
	}
	if cat == nil || cat.Size() == 0 {
		return nil, fmt.Errorf("empty catalog: %w", ErrInput)
	}
	if topN <= 0 {
		return nil, fmt.Errorf("topN %d: %w", topN, ErrInput)
	}
	fold, err := newSwipeFold()
	if err != nil {
		return nil, err
	}
	if err := categoryMeans(twins, fold.add); err != nil {
		return nil, err
	}
	swipe := fold.distribution()

	// Mean preference across members.
	pref := make(behavior.Preference, video.NumCategories)
	for _, tw := range twins {
		tw.AddPreferenceTo(pref)
	}
	for i := range pref {
		pref[i] /= float64(len(twins))
	}

	// Mean engagement seconds per view.
	var watchSum float64
	var viewSum int
	for _, tw := range twins {
		w := tw.WatchByCategory()
		v := tw.ViewsByCategory()
		for ci := range w {
			watchSum += w[ci]
			viewSum += v[ci]
		}
	}
	meanEng := 0.0
	if viewSum > 0 {
		meanEng = watchSum / float64(viewSum)
	}

	// Recommendation: score = popularity × preference of the video's
	// category; take the topN by score.
	rec := rankByScore(cat, pref, topN)

	return &GroupProfile{
		Swipe:           swipe,
		Preference:      pref,
		Recommended:     rec,
		Size:            len(twins),
		MeanEngagementS: meanEng,
	}, nil
}

// rankByScore returns the topN videos by popularity × category
// preference (videos of no category excluded), in the order a partial
// selection sort over the scored catalog picks them (topScores).
func rankByScore(cat *video.Catalog, pref behavior.Preference, topN int) []*video.Video {
	score := func(i int) (float64, bool) {
		v := cat.Videos[i]
		idx := v.Category.Index()
		if idx < 0 {
			return 0, false
		}
		return cat.Popularity(v.ID) * pref[idx], true
	}
	var buf [64]int
	picks := topScores(len(cat.Videos), topN, score, buf[:0])
	out := make([]*video.Video, len(picks))
	for i, p := range picks {
		out[i] = cat.Videos[p]
	}
	return out
}

// rankCand is a scored item topScores may pick: its index, its score,
// and its position in the selection sort's array — where it sits while
// unpicked, the step that picked it once picked.
type rankCand struct {
	idx, pos int
	s        float64
}

// topScores appends to dst the indices of the topN highest scores among
// the items i in [0, n) that score reports ok (all of them when fewer),
// in the order this partial selection sort over the ok items picks
// them: at step i, the first maximum at array positions i and on, then
// a swap with the item at position i. Ties are picked in that order,
// which the swaps make depend on the earlier picks.
//
// The sort itself scans the whole array topN times; this replays it on
// the few items that can be picked. Let t be the topN-th largest score:
// every pick scores at least t (at each step, some item scoring at least
// t remains), so an item scoring below t is never picked, and where it
// sits never decides a pick. Only the candidates — the items scoring at
// least t — are tracked, with their array positions: a pick moves to
// position i, and the candidate it displaces from i, if any, to the
// pick's old position. Scores must not be NaN. It allocates nothing
// while topN and the candidates fit dst's capacity and 128.
func topScores(n, topN int, score func(i int) (float64, bool), dst []int) []int {
	if topN <= 0 {
		return dst
	}
	// The topN largest scores, descending, counting repeats.
	var topBuf [64]float64
	top := topBuf[:0]
	for i := 0; i < n; i++ {
		s, ok := score(i)
		switch {
		case !ok:
			continue
		case len(top) < topN:
			top = append(top, s)
		case s > top[len(top)-1]:
			top[len(top)-1] = s
		default:
			continue
		}
		for j := len(top) - 1; j > 0 && top[j-1] < top[j]; j-- {
			top[j-1], top[j] = top[j], top[j-1]
		}
	}
	if len(top) == 0 {
		return dst
	}
	floor := top[len(top)-1]
	var candBuf [128]rankCand
	cands := candBuf[:0]
	pos := 0
	for i := 0; i < n; i++ {
		s, ok := score(i)
		if !ok {
			continue
		}
		if s >= floor {
			cands = append(cands, rankCand{idx: i, pos: pos, s: s})
		}
		pos++
	}
	for step := range top {
		best := -1
		for c, cd := range cands {
			if cd.pos >= step && (best < 0 || cd.s > cands[best].s || cd.s == cands[best].s && cd.pos < cands[best].pos) {
				best = c
			}
		}
		for c := range cands {
			if cands[c].pos == step && c != best {
				cands[c].pos = cands[best].pos
				break
			}
		}
		cands[best].pos = step
		dst = append(dst, cands[best].idx)
	}
	return dst
}
