// Package segment models segment-level multicast delivery with
// prefetching. Short videos are transmitted as fixed-length segments;
// the BS keeps a prefetch window of segments ahead of the group's
// playhead so playback never stalls. When the last group member
// swipes, the segments delivered beyond the swipe point are wasted —
// exactly the over-provisioning effect the paper sets out to quantify
// ("users' swiping behaviors can lead to resource over-provisioning
// if precached segments are not played", §I).
package segment

import (
	"errors"
	"fmt"
	"math"
)

// ErrParam indicates invalid segment-plan input.
var ErrParam = errors.New("segment: invalid parameter")

// Plan computes the delivery outcome of one multicast video: given
// that the last member watched watchS seconds of a durS-second video,
// with segS-second segments and a prefetch window of depth segments
// beyond the playhead, it returns the seconds of video actually
// delivered and the wasted (delivered-but-unplayed) seconds.
//
// Delivery rule: while anyone watches, the BS keeps the next `depth`
// segments beyond the playhead in flight, so by the swipe moment the
// segments covering watchS plus `depth` further segments have been
// delivered (bounded by the video end). Watching to the end wastes
// nothing.
func Plan(watchS, durS, segS float64, depth int) (deliveredS, wasteS float64, err error) {
	switch {
	case durS <= 0 || segS <= 0:
		return 0, 0, fmt.Errorf("duration %v segment %v: %w", durS, segS, ErrParam)
	case watchS < 0 || math.IsNaN(watchS):
		return 0, 0, fmt.Errorf("watch %v: %w", watchS, ErrParam)
	case depth < 0:
		return 0, 0, fmt.Errorf("prefetch depth %d: %w", depth, ErrParam)
	}
	if watchS > durS {
		watchS = durS
	}
	if watchS >= durS {
		return durS, 0, nil
	}
	// Segments covering the watched prefix…
	watched := math.Ceil(watchS / segS)
	if watched == 0 {
		// The player always fetches at least the first segment.
		watched = 1
	}
	// …plus the prefetch window.
	delivered := (watched + float64(depth)) * segS
	if delivered > durS {
		delivered = durS
	}
	return delivered, delivered - watchS, nil
}
