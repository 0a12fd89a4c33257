package predict

import (
	"fmt"

	"dtmsvs/internal/channel"
	"dtmsvs/internal/video"
)

// Demand is one interval's predicted (or measured) resource demand
// for a multicast group.
type Demand struct {
	// RadioRBs is the radio demand in resource blocks.
	RadioRBs float64
	// ComputeCycles is the transcoding demand in CPU cycles.
	ComputeCycles float64
	// TrafficBits is the multicast traffic volume in bits.
	TrafficBits float64
	// WasteBits is the delivered-but-unplayed share of TrafficBits
	// caused by swiping under segment prefetching (0 when the
	// predictor runs without segmentation).
	WasteBits float64
	// EngagementS is the expected per-member engagement seconds.
	EngagementS float64
}

// DemandPredictor turns a group profile plus channel forecast into a
// next-interval demand prediction.
type DemandPredictor struct {
	// Params is the radio parameter set.
	Params channel.Params
	// IntervalS is the reservation interval length (paper: 300 s).
	IntervalS float64
	// SwipeGapS is the idle time between consecutive videos.
	SwipeGapS float64
	// MeanVideoDurationS of the catalog.
	MeanVideoDurationS float64
	// CyclesPerBit of the edge transcoder.
	CyclesPerBit float64
	// CacheHitRate is the expected fraction of requests served from
	// cache (no transcode).
	CacheHitRate float64
	// SegmentS enables segment-level prefetch accounting when > 0:
	// traffic covers segment-rounded delivery plus the prefetch
	// window, and the over-delivered share is reported as WasteBits.
	SegmentS float64
	// PrefetchDepth is the prefetch window in segments (used when
	// SegmentS > 0).
	PrefetchDepth int
}

// Validate checks the predictor parameters.
func (p DemandPredictor) Validate() error {
	switch {
	case p.IntervalS <= 0:
		return fmt.Errorf("interval %v: %w", p.IntervalS, ErrInput)
	case p.SwipeGapS < 0:
		return fmt.Errorf("swipe gap %v: %w", p.SwipeGapS, ErrInput)
	case p.MeanVideoDurationS <= 0:
		return fmt.Errorf("mean duration %v: %w", p.MeanVideoDurationS, ErrInput)
	case p.CyclesPerBit < 0:
		return fmt.Errorf("cycles/bit %v: %w", p.CyclesPerBit, ErrInput)
	case p.CacheHitRate < 0 || p.CacheHitRate > 1:
		return fmt.Errorf("cache hit rate %v: %w", p.CacheHitRate, ErrInput)
	case p.SegmentS < 0 || p.PrefetchDepth < 0:
		return fmt.Errorf("segment %v depth %d: %w", p.SegmentS, p.PrefetchDepth, ErrInput)
	}
	return p.Params.Validate()
}

// Predict computes the expected next-interval demand of a group from
// its abstracted profile, the group's streaming bitrate, and the
// forecast worst-member SNR (from the UDT channel series).
//
// Model: the group multicasts a shared feed. Each video of category c
// is transmitted for E[max over Size members of watch fraction]·D
// seconds (the BS transmits until the last member swipes), where D is
// the mean video duration. The number of videos per interval follows
// from the per-video cycle (transmit time + swipe gap). Traffic =
// videos × transmit seconds × bitrate. Radio RBs = traffic rate /
// per-RB rate at the forecast worst SNR. Compute = non-cache-hit
// videos × transcode cycles for the interval's transmitted seconds.
func (p DemandPredictor) Predict(profile *GroupProfile, bitrateBps, worstSNRdB float64) (*Demand, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if profile == nil || profile.Size <= 0 {
		return nil, fmt.Errorf("nil/empty profile: %w", ErrInput)
	}
	if bitrateBps <= 0 {
		return nil, fmt.Errorf("bitrate %v: %w", bitrateBps, ErrInput)
	}

	// Expected transmit (playback) fraction, wasted fraction under
	// prefetching, and per-member watch fraction — each weighted by
	// the group's category mix. Waste is estimated directly from the
	// Tmax distribution (not as a difference of two expectations) so
	// discretization error does not swamp the small waste signal.
	var txFrac, wasteFrac, watchFrac float64
	for i, c := range video.AllCategories() {
		w := profile.Preference[i]
		if w == 0 {
			continue
		}
		mx, err := profile.Swipe.ExpectedMaxWatchFraction(c, profile.Size)
		if err != nil {
			return nil, err
		}
		ew, err := profile.Swipe.ExpectedWatchFraction(c)
		if err != nil {
			return nil, err
		}
		if p.SegmentS > 0 {
			wf, werr := profile.Swipe.ExpectedMaxWasteFraction(
				c, profile.Size, p.MeanVideoDurationS, p.SegmentS, p.PrefetchDepth)
			if werr != nil {
				return nil, werr
			}
			wasteFrac += w * wf
		}
		txFrac += w * mx
		watchFrac += w * ew
	}
	if txFrac <= 0 {
		txFrac = 1.0 / SwipeBins
	}
	deliveredFrac := txFrac + wasteFrac
	if deliveredFrac > 1 {
		deliveredFrac = 1
	}

	txPerVideoS := txFrac * p.MeanVideoDurationS
	deliveredPerVideoS := deliveredFrac * p.MeanVideoDurationS
	videosPerInterval := p.IntervalS / (txPerVideoS + p.SwipeGapS)
	traffic := videosPerInterval * deliveredPerVideoS * bitrateBps
	waste := videosPerInterval * (deliveredPerVideoS - txPerVideoS) * bitrateBps

	perRB := p.Params.RateBps(worstSNRdB)
	if perRB <= 0 {
		return nil, fmt.Errorf("per-RB rate %v at %v dB: %w", perRB, worstSNRdB, ErrInput)
	}
	// Average RBs needed so the interval's traffic fits: the feed
	// streams at bitrateBps while transmitting, so the demand is the
	// duty-cycle-weighted RB count.
	rbs := (traffic / p.IntervalS) / perRB

	// Transcoding: every non-cached video is transcoded from the top
	// ladder rung down to bitrateBps for its delivered duration
	// (prefetched segments are transcoded too).
	topRate := video.DefaultLadder()[len(video.DefaultLadder())-1].BitrateBps
	var cycles float64
	if bitrateBps < topRate && p.CyclesPerBit > 0 {
		cycles = (1 - p.CacheHitRate) * videosPerInterval * p.CyclesPerBit * topRate * deliveredPerVideoS
	}

	return &Demand{
		RadioRBs:      rbs,
		ComputeCycles: cycles,
		TrafficBits:   traffic,
		WasteBits:     waste,
		EngagementS:   watchFrac * p.MeanVideoDurationS * videosPerInterval,
	}, nil
}
