// Package behavior models user viewing behavior: per-user category
// preference vectors, engagement/watch-duration draws, and the swipe
// process. The paper updates preferences from "preference labels and
// engagement time"; we implement that update rule directly.
package behavior

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"dtmsvs/internal/stats"
	"dtmsvs/internal/video"
)

// ErrParam indicates an invalid behavior parameter.
var ErrParam = errors.New("behavior: invalid parameter")

// Preference is a probability vector over video categories.
type Preference []float64

// NewUniformPreference returns the uniform preference.
func NewUniformPreference() Preference {
	p := make(Preference, video.NumCategories)
	for i := range p {
		p[i] = 1.0 / video.NumCategories
	}
	return p
}

// NewRandomPreference draws a Dirichlet-like preference by normalizing
// exponential samples, optionally biased toward a favorite category:
// Draw into a new preference.
func NewRandomPreference(rng *rand.Rand, favorite video.Category, bias float64) (Preference, error) {
	if bias < 0 {
		return nil, fmt.Errorf("bias %v: %w", bias, ErrParam)
	}
	p := make(Preference, video.NumCategories)
	return p, p.Draw(rng, favorite, bias)
}

// Draw overwrites p, in place, with the preference NewRandomPreference
// draws from the same stream: one exponential sample per category, the
// favorite's raised by bias, normalized. p must hold one weight per
// category.
func (p Preference) Draw(rng *rand.Rand, favorite video.Category, bias float64) error {
	if bias < 0 {
		return fmt.Errorf("bias %v: %w", bias, ErrParam)
	}
	if len(p) != video.NumCategories {
		return fmt.Errorf("preference of %d categories, want %d: %w", len(p), video.NumCategories, ErrParam)
	}
	var total float64
	for i := range p {
		p[i] = rng.ExpFloat64()
		if favorite.Index() == i {
			p[i] += bias
		}
		total += p[i]
	}
	for i := range p {
		p[i] /= total
	}
	return nil
}

// Validate checks that the preference is a proper distribution.
func (p Preference) Validate() error {
	if len(p) != video.NumCategories {
		return fmt.Errorf("preference of %d categories, want %d: %w", len(p), video.NumCategories, ErrParam)
	}
	var sum float64
	for i, v := range p {
		// Negated so that a NaN, for which every comparison is
		// false, fails too.
		if !(v >= 0) || math.IsInf(v, 1) {
			return fmt.Errorf("preference[%d]=%v: %w", i, v, ErrParam)
		}
		sum += v
	}
	if !(sum >= 0.999 && sum <= 1.001) {
		return fmt.Errorf("preference sums to %v: %w", sum, ErrParam)
	}
	return nil
}

// Clone deep-copies the preference.
func (p Preference) Clone() Preference {
	out := make(Preference, len(p))
	copy(out, p)
	return out
}

// Update folds an observed engagement ratio for one category into the
// preference with learning rate lr (exponential update, then
// renormalize). This is the paper's "preferences are updated based on
// preference labels and engagement time".
func (p Preference) Update(cat video.Category, engagement, lr float64) error {
	idx := cat.Index()
	if idx < 0 {
		return fmt.Errorf("unknown category %v: %w", cat, ErrParam)
	}
	if lr <= 0 || lr > 1 {
		return fmt.Errorf("learning rate %v: %w", lr, ErrParam)
	}
	if engagement < 0 {
		engagement = 0
	}
	if engagement > 1 {
		engagement = 1
	}
	p[idx] = (1-lr)*p[idx] + lr*engagement
	var sum float64
	for _, v := range p {
		sum += v
	}
	if sum == 0 {
		copy(p, NewUniformPreference())
		return nil
	}
	for i := range p {
		p[i] /= sum
	}
	return nil
}

// Profile generates a user's watch behavior.
type Profile struct {
	// Pref is the user's category preference.
	Pref Preference
	// Engagement in (0,1] scales how much of preferred content the
	// user watches.
	Engagement float64
}

// watchTime is every profile's raw watch-fraction distribution: median
// ≈ 0.7 before preference/engagement scaling. Sample only reads it.
var watchTime = stats.LogNormal{Mu: -0.35, Sigma: 0.55}

// NewProfile constructs a behavior profile: Init into a new one.
func NewProfile(pref Preference, engagement float64) (*Profile, error) {
	pr := new(Profile)
	if err := pr.Init(pref, engagement); err != nil {
		return nil, err
	}
	return pr, nil
}

// Init builds the profile in place over pref (which it keeps, not a
// copy), checking both parameters first; on error the profile is left
// as it was.
func (pr *Profile) Init(pref Preference, engagement float64) error {
	if err := pref.Validate(); err != nil {
		return err
	}
	if engagement <= 0 || engagement > 1 {
		return fmt.Errorf("engagement %v: %w", engagement, ErrParam)
	}
	*pr = Profile{Pref: pref, Engagement: engagement}
	return nil
}

// WatchFraction draws the fraction of a video of category cat this
// user watches (in [0, 1]). Preferred categories are watched longer:
// the raw log-normal draw is scaled by engagement and by how much the
// user likes the category relative to uniform.
func (pr *Profile) WatchFraction(cat video.Category, rng *rand.Rand) (float64, error) {
	idx := cat.Index()
	if idx < 0 {
		return 0, fmt.Errorf("unknown category %v: %w", cat, ErrParam)
	}
	affinity := pr.Pref[idx] * video.NumCategories // 1.0 == indifferent
	frac := watchTime.Sample(rng) * pr.Engagement * affinity
	if frac > 1 {
		frac = 1
	}
	if frac < 0 {
		frac = 0
	}
	return frac, nil
}

// ViewEvent is one completed view within a session.
type ViewEvent struct {
	Video *video.Video
	// Rep is the representation streamed.
	Rep video.Representation
	// WatchS is the seconds actually watched.
	WatchS float64
	// Swiped is true when the user left before the video ended.
	Swiped bool
}

// Engagement returns the watched fraction of the video.
func (e ViewEvent) Engagement() float64 {
	if e.Video.DurationS == 0 {
		return 0
	}
	return e.WatchS / e.Video.DurationS
}

// Session simulates a user watching a feed for intervalS seconds:
// videos are recommended (popularity-weighted within
// preference-sampled categories), watched for a profile-driven
// duration, and swiped when abandoned early. linkBps caps the chosen
// representation. It is AppendSession into a fresh slice.
func Session(
	cat *video.Catalog,
	pr *Profile,
	intervalS float64,
	linkBps float64,
	rng *rand.Rand,
) ([]ViewEvent, error) {
	return AppendSession(nil, cat, pr, intervalS, linkBps, rng)
}

// AppendSession appends Session's events to dst and returns the
// extended slice, drawing the same stream in the same order; on error
// it returns dst as passed. Into a dst with room for the session, the
// only allocation is the preference sampler.
func AppendSession(
	dst []ViewEvent,
	cat *video.Catalog,
	pr *Profile,
	intervalS float64,
	linkBps float64,
	rng *rand.Rand,
) ([]ViewEvent, error) {
	if cat == nil || cat.Size() == 0 {
		return dst, fmt.Errorf("empty catalog: %w", ErrParam)
	}
	if intervalS <= 0 {
		return dst, fmt.Errorf("interval %v s: %w", intervalS, ErrParam)
	}
	catDist, err := stats.NewCategorical(pr.Pref)
	if err != nil {
		return dst, fmt.Errorf("preference sampler: %w", err)
	}
	events := dst
	clock := 0.0
	for clock < intervalS {
		c := video.AllCategories()[catDist.Sample(rng)]
		v, verr := cat.SampleFromCategory(c, rng)
		if verr != nil {
			// Category empty in this catalog draw — fall back to
			// global popularity.
			v = cat.SamplePopular(rng)
		}
		frac, ferr := pr.WatchFraction(v.Category, rng)
		if ferr != nil {
			return dst, ferr
		}
		watch := frac * v.DurationS
		if clock+watch > intervalS {
			watch = intervalS - clock
			frac = watch / v.DurationS
		}
		rep := v.RepAtMost(linkBps)
		events = append(events, ViewEvent{
			Video:  v,
			Rep:    rep,
			WatchS: watch,
			Swiped: frac < 0.999,
		})
		clock += watch + 0.5 // half-second swipe gap
	}
	return events, nil
}
