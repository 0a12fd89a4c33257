package sim

import "fmt"

// Summary aggregates a trace into run-level statistics.
type Summary struct {
	Intervals       int     `json:"intervals"`
	Groups          int     `json:"groups"`
	RadioAccuracy   float64 `json:"radioAccuracy"`
	ComputeAccuracy float64 `json:"computeAccuracy"`
	MeanActualRBs   float64 `json:"meanActualRBs"`
	PeakActualRBs   float64 `json:"peakActualRBs"`
	TotalBits       float64 `json:"totalBits"`
	TotalCycles     float64 `json:"totalCycles"`
}

// Summarize computes the run-level summary of a trace.
func (t *Trace) Summarize() (*Summary, error) {
	if len(t.Records) == 0 {
		return nil, fmt.Errorf("empty trace: %w", ErrConfig)
	}
	radio, err := t.RadioAccuracy()
	if err != nil {
		return nil, err
	}
	compute, err := t.ComputeAccuracy()
	if err != nil {
		// A run with zero transcoding has no compute accuracy; report 1.
		compute = 1
	}
	s := &Summary{RadioAccuracy: radio, ComputeAccuracy: compute}
	intervals := map[int]bool{}
	groups := map[int]bool{}
	var rbSum float64
	for _, r := range t.Records {
		intervals[r.Interval] = true
		groups[r.GroupID] = true
		rbSum += r.ActualRBs
		if r.ActualRBs > s.PeakActualRBs {
			s.PeakActualRBs = r.ActualRBs
		}
		s.TotalBits += r.ActualBits
		s.TotalCycles += r.ActualCycles
	}
	s.Intervals = len(intervals)
	s.Groups = len(groups)
	s.MeanActualRBs = rbSum / float64(len(t.Records))
	return s, nil
}
