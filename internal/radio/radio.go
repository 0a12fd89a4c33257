// Package radio holds a base station's resource-block budget (paper
// §II-B2). Each interval the engine admits every multicast group's
// grant against it: the forecast demand plus a reserve margin, rounded
// up to whole blocks. The demand itself, billed by the engine and
// forecast by internal/predict, is fractional: the group's bitrate
// over its worst member's per-RB rate. No integer demand model lives
// here.
package radio

import (
	"errors"
	"fmt"
)

// ErrParam indicates invalid radio accounting input.
var ErrParam = errors.New("radio: invalid parameter")

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
