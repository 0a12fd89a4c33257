// Package qoe scores the viewing quality of multicast short-video
// delivery. The paper's intro motivates transcoding and grouping with
// user experience ("to reduce the transmission delay", "users'
// diversified characteristics"); this package quantifies that with
// the common log-utility formulation of ABR literature: bitrate
// utility over watched seconds, minus a quality-switch penalty. It
// powers the QoE-vs-budget experiment (E9) that closes the loop from
// demand prediction → reservation → experienced quality.
package qoe

import (
	"errors"
	"fmt"
	"math"
)

// ErrParam indicates invalid QoE input.
var ErrParam = errors.New("qoe: invalid parameter")

const (
	// baseBps normalizes bitrate into utility units: the lowest ladder
	// rung, 400 kbps.
	baseBps = 400e3
	// switchPenalty is charged per unit |utility| change between
	// consecutive intervals' rungs.
	switchPenalty = 1
)

// utility is the per-second bitrate utility log2(1 + r/base).
func utility(bitrateBps float64) float64 {
	return math.Log2(1 + bitrateBps/baseBps)
}

// GroupInterval summarizes a multicast group's interval for QoE
// purposes: every member watched the shared feed at the group's
// bitrate, so the interval-level QoE is the per-member utility of the
// engaged seconds at the streamed bitrate minus a switch penalty when
// the interval changed the group's rung.
type GroupInterval struct {
	// BitrateBps streamed this interval.
	BitrateBps float64
	// PrevBitrateBps streamed the previous interval (0 for the first).
	PrevBitrateBps float64
	// EngagementS is the mean per-member watched seconds.
	EngagementS float64
}

// ScoreInterval returns the per-member QoE of one group interval.
func ScoreInterval(gi GroupInterval) (float64, error) {
	if gi.BitrateBps <= 0 || gi.EngagementS < 0 {
		return 0, fmt.Errorf("interval %+v: %w", gi, ErrParam)
	}
	q := utility(gi.BitrateBps) * gi.EngagementS
	if gi.PrevBitrateBps > 0 {
		q -= switchPenalty * math.Abs(utility(gi.BitrateBps)-utility(gi.PrevBitrateBps))
	}
	return q, nil
}
