package sim

import (
	"fmt"

	"dtmsvs/internal/tracebin"
)

// BinRecord flattens the record into the binary columnar trace row,
// tagged with its serving cell (-1 for the monolithic engine's
// campus-wide groups).
func (r GroupIntervalRecord) BinRecord(bs int) tracebin.Record {
	return tracebin.Record{
		BS:                 bs,
		Interval:           r.Interval,
		GroupID:            r.GroupID,
		Size:               r.Size,
		PredictedRBs:       r.PredictedRBs,
		ActualRBs:          r.ActualRBs,
		AllocatedRBs:       r.AllocatedRBs,
		PredictedCycles:    r.PredictedCycles,
		ActualCycles:       r.ActualCycles,
		PredictedBits:      r.PredictedBits,
		ActualBits:         r.ActualBits,
		PredictedWasteBits: r.PredictedWasteBits,
		ActualWasteBits:    r.ActualWasteBits,
		ActualEngagementS:  r.ActualEngagementS,
		WorstSNRdB:         r.WorstSNRdB,
		BitrateBps:         r.BitrateBps,
	}
}

// RecordFromBin is the inverse of BinRecord, dropping the cell tag.
func RecordFromBin(b tracebin.Record) GroupIntervalRecord {
	return GroupIntervalRecord{
		Interval:           b.Interval,
		GroupID:            b.GroupID,
		Size:               b.Size,
		PredictedRBs:       b.PredictedRBs,
		ActualRBs:          b.ActualRBs,
		AllocatedRBs:       b.AllocatedRBs,
		PredictedCycles:    b.PredictedCycles,
		ActualCycles:       b.ActualCycles,
		PredictedBits:      b.PredictedBits,
		ActualBits:         b.ActualBits,
		PredictedWasteBits: b.PredictedWasteBits,
		ActualWasteBits:    b.ActualWasteBits,
		ActualEngagementS:  b.ActualEngagementS,
		WorstSNRdB:         b.WorstSNRdB,
		BitrateBps:         b.BitrateBps,
	}
}

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
