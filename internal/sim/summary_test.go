package sim

import (
	"errors"
	"testing"
)

func sampleRecords() []GroupIntervalRecord {
	return []GroupIntervalRecord{
		{Interval: 0, GroupID: 0, Size: 10, PredictedRBs: 3.2, ActualRBs: 3.5,
			AllocatedRBs: 4, PredictedCycles: 1e9, ActualCycles: 1.1e9,
			PredictedBits: 7e8, ActualBits: 7.2e8, WorstSNRdB: 9.5, BitrateBps: 1.85e6},
		{Interval: 0, GroupID: 1, Size: 14, PredictedRBs: 2.1, ActualRBs: 2.0,
			PredictedBits: 5e8, ActualBits: 5.1e8, WorstSNRdB: 12.5, BitrateBps: 2.5e6},
		{Interval: 1, GroupID: 0, Size: 10, PredictedRBs: 3.3, ActualRBs: 3.1,
			PredictedBits: 7e8, ActualBits: 6.9e8, WorstSNRdB: 9.1, BitrateBps: 1.85e6},
	}
}

func TestSummarize(t *testing.T) {
	empty := &Trace{}
	if _, err := empty.Summarize(); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
	tr := &Trace{}
	for _, r := range sampleRecords() {
		tr.Records = append(tr.Records, r.BinRecord(-1))
	}
	s, err := tr.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if s.Intervals != 2 || s.Groups != 2 {
		t.Fatalf("summary %+v", s)
	}
	if s.PeakActualRBs != 3.5 {
		t.Fatalf("peak %v", s.PeakActualRBs)
	}
	wantMean := (3.5 + 2.0 + 3.1) / 3
	if s.MeanActualRBs != wantMean {
		t.Fatalf("mean %v, want %v", s.MeanActualRBs, wantMean)
	}
	if s.RadioAccuracy <= 0.8 || s.RadioAccuracy > 1 {
		t.Fatalf("radio accuracy %v", s.RadioAccuracy)
	}
	if s.TotalBits != 7.2e8+5.1e8+6.9e8 {
		t.Fatalf("total bits %v", s.TotalBits)
	}
}

func TestRunWithRBBudget(t *testing.T) {
	cfg := fastConfig(21)
	cfg.RBBudget = 6 // tight: forces admission cuts
	tr := runFast(t, cfg)
	perInterval := map[int]int{}
	for _, r := range tr.Records {
		if r.AllocatedRBs < 0 {
			t.Fatalf("negative grant: %+v", r)
		}
		perInterval[r.Interval] += r.AllocatedRBs
	}
	for iv, total := range perInterval {
		if total > 6 {
			t.Fatalf("interval %d allocated %d > budget 6", iv, total)
		}
	}
}

func TestRunBudgetValidation(t *testing.T) {
	cfg := fastConfig(22)
	cfg.RBBudget = -1
	if err := cfg.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
}
