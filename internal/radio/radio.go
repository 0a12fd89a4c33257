// Package radio models multicast radio resource accounting (paper
// §II-B2): a multicast group's sustainable rate is governed by its
// worst member (conservative eMBMS-style multicast), and the radio
// resource demand is the number of resource blocks needed to carry a
// target video bitrate at that worst-case spectral efficiency.
package radio

import (
	"errors"
	"fmt"
	"math"

	"dtmsvs/internal/channel"
)

// ErrParam indicates invalid radio accounting input.
var ErrParam = errors.New("radio: invalid parameter")

// MemberSNR is one group member's instantaneous link quality.
type MemberSNR struct {
	UserID int
	SNRdB  float64
}

// GroupRate computes the multicast group's per-RB rate (bits/s per
// resource block): the rate of the worst member, since every member
// must decode the common transmission.
func GroupRate(params channel.Params, members []MemberSNR) (float64, error) {
	if len(members) == 0 {
		return 0, fmt.Errorf("empty group: %w", ErrParam)
	}
	worst := math.Inf(1)
	for _, m := range members {
		if m.SNRdB < worst {
			worst = m.SNRdB
		}
	}
	return params.RateBps(worst), nil
}

// RBDemand returns the number of resource blocks needed to deliver
// bitrateBps to the group: ceil(bitrate / per-RB rate of worst user).
func RBDemand(params channel.Params, members []MemberSNR, bitrateBps float64) (int, error) {
	if bitrateBps <= 0 {
		return 0, fmt.Errorf("bitrate %v: %w", bitrateBps, ErrParam)
	}
	perRB, err := GroupRate(params, members)
	if err != nil {
		return 0, err
	}
	if perRB <= 0 {
		return 0, fmt.Errorf("zero per-RB rate: %w", ErrParam)
	}
	return int(math.Ceil(bitrateBps / perRB)), nil
}

// Scheduler tracks a base station's RB budget across groups.
type Scheduler struct {
	totalRBs int
	used     int
}

// NewScheduler creates a scheduler with the given RB budget per
// interval (e.g. 100 RBs for 20 MHz LTE).
func NewScheduler(totalRBs int) (*Scheduler, error) {
	if totalRBs <= 0 {
		return nil, fmt.Errorf("rb budget %d: %w", totalRBs, ErrParam)
	}
	return &Scheduler{totalRBs: totalRBs}, nil
}

// Total returns the RB budget.
func (s *Scheduler) Total() int { return s.totalRBs }

// Used returns the RBs allocated so far this interval.
func (s *Scheduler) Used() int { return s.used }

// Free returns the remaining RBs.
func (s *Scheduler) Free() int { return s.totalRBs - s.used }

// ErrExhausted is returned when the RB budget cannot cover a request.
var ErrExhausted = errors.New("radio: resource blocks exhausted")

// Allocate grants rbs blocks to a group, or fails with ErrExhausted.
func (s *Scheduler) Allocate(rbs int) error {
	if rbs <= 0 {
		return fmt.Errorf("allocate %d rbs: %w", rbs, ErrParam)
	}
	if s.used+rbs > s.totalRBs {
		return fmt.Errorf("need %d rbs, %d free: %w", rbs, s.Free(), ErrExhausted)
	}
	s.used += rbs
	return nil
}

// Reset clears allocations for a new interval.
func (s *Scheduler) Reset() { s.used = 0 }

// Utilization returns the fraction of the budget in use.
func (s *Scheduler) Utilization() float64 {
	return float64(s.used) / float64(s.totalRBs)
}
