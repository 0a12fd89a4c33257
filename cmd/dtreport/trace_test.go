package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dtmsvs"
)

// TestReportTraceTotalsMatchTracker: the stored-trace summary scores a
// run exactly as an AccuracyTracker attached to that run did — radio
// by 1 − MAPE, compute by volume — for both engines.
func TestReportTraceTotalsMatchTracker(t *testing.T) {
	cfg := dtmsvs.DefaultConfig(42)
	cfg.NumUsers = 40
	cfg.NumBS = 2
	cfg.NumIntervals = 4
	for _, tc := range []struct {
		name string
		open func(...dtmsvs.SessionOption) (dtmsvs.Session, error)
	}{
		{"mono", func(opts ...dtmsvs.SessionOption) (dtmsvs.Session, error) { return dtmsvs.Open(cfg, opts...) }},
		{"cluster", func(opts ...dtmsvs.SessionOption) (dtmsvs.Session, error) {
			return dtmsvs.OpenCluster(dtmsvs.ClusterConfig{Sim: cfg}, opts...)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			var acc dtmsvs.AccuracyTracker
			s, err := tc.open(dtmsvs.WithSink(dtmsvs.NewNDJSONSink(&buf)), dtmsvs.WithObserver(acc.Observe))
			if err != nil {
				t.Fatal(err)
			}
			for !s.Done() {
				if _, err := s.Step(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "trace.ndjson")
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := reportTrace(&out, path); err != nil {
				t.Fatal(err)
			}
			radio, err := acc.RadioAccuracy()
			if err != nil {
				t.Fatal(err)
			}
			compute, err := acc.ComputeAccuracy()
			if err != nil {
				t.Fatal(err)
			}
			for prefix, want := range map[string]float64{"- radio:": radio, "- compute:": compute} {
				line := totalsLine(t, out.String(), prefix)
				if w := fmt.Sprintf("accuracy %.2f%% ", want*100); !strings.Contains(line, w) {
					t.Errorf("totals line %q does not report the tracker's %q", line, w)
				}
			}
		})
	}
}

func totalsLine(t *testing.T, report, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(report, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	t.Fatalf("no %q totals line in report:\n%s", prefix, report)
	return ""
}

// TestReportTraceUndefinedAccuracy: an interval without a nonzero
// actual prints n/a rather than a perfect score — unless nothing was
// predicted either: zero volume forecast as zero (the waste column
// here) is exact.
func TestReportTraceUndefinedAccuracy(t *testing.T) {
	var buf bytes.Buffer
	sink := dtmsvs.NewNDJSONSink(&buf)
	for _, r := range []dtmsvs.GroupIntervalRecord{
		{Interval: 0, PredictedRBs: 2, ActualRBs: 0, PredictedCycles: 1, ActualCycles: 0},
		{Interval: 1, PredictedRBs: 2, ActualRBs: 2, PredictedCycles: 1, ActualCycles: 1},
	} {
		if err := sink.WriteRecord(dtmsvs.TraceRecord{BS: -1, GroupIntervalRecord: r}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := reportTrace(&out, path); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"| 0 | 1 | 0 | 2.0 | 0.0 | n/a | n/a | 100.00% |",
		"| 1 | 1 | 0 | 2.0 | 2.0 | 100.00% | 100.00% | 100.00% |",
		"- radio: predicted 4.0 RBs vs actual 2.0 RBs, accuracy 100.00% (1 − MAPE)",
		"- compute: predicted 2.000e+00 vs actual 1.000e+00 cycles, accuracy 0.00% (volume)",
		"- waste: predicted 0.000e+00 vs actual 0.000e+00 bits, accuracy 100.00% (volume)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}
