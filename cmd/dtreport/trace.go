package main

import (
	"fmt"
	"io"
	"math"
	"sort"

	"dtmsvs"
	"dtmsvs/internal/cli"
)

// reportTrace renders a markdown summary of a stored trace file: one
// row per scheduling interval with grouped demand and prediction
// accuracy, plus run totals. The file may be in any trace format this
// repo writes (json, ndjson, csv, bin) — detection is automatic.
//
// Accuracy is scored by dtmsvs.AccuracyTracker (radio 1 − MAPE,
// compute and waste by volume) folding the records in file order, so
// the totals equal what a tracker attached to the run reported.
func reportTrace(w io.Writer, path string) error {
	recs, err := dtmsvs.ReadTraceFile(path)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("trace %s holds no records", path)
	}
	byInterval := map[int][]dtmsvs.TraceRecord{}
	for _, r := range recs {
		byInterval[r.Interval] = append(byInterval[r.Interval], r)
	}
	intervals := make([]int, 0, len(byInterval))
	for k := range byInterval {
		intervals = append(intervals, k)
	}
	sort.Ints(intervals)

	fmt.Fprintf(w, "# Trace summary: %s\n\n%d records over %d intervals.\n\n", path, len(recs), len(intervals))
	fmt.Fprintln(w, "| interval | groups | cells | predicted RBs | actual RBs | radio accuracy | compute accuracy | waste accuracy |")
	fmt.Fprintln(w, "|---:|---:|---:|---:|---:|---:|---:|---:|")
	for _, k := range intervals {
		rows := byInterval[k]
		var acc dtmsvs.AccuracyTracker
		acc.Observe(dtmsvs.IntervalReport{Interval: k, Records: rows})
		cells := map[int]bool{}
		for _, r := range rows {
			if r.BS >= 0 {
				cells[r.BS] = true
			}
		}
		d := sumDemand(rows)
		fmt.Fprintf(w, "| %d | %d | %d | %.1f | %.1f | %s | %s | %s |\n",
			k, len(rows), len(cells), d.predRBs, d.actRBs,
			percent(acc.RadioAccuracy()), percent(acc.ComputeAccuracy()), percent(acc.WasteAccuracy()))
	}

	var acc dtmsvs.AccuracyTracker
	acc.Observe(dtmsvs.IntervalReport{Records: recs})
	d := sumDemand(recs)
	fmt.Fprintf(w, "\nTotals over %d group-intervals:\n\n", len(recs))
	fmt.Fprintf(w, "- radio: predicted %.1f RBs vs actual %.1f RBs, accuracy %s (1 − MAPE)\n",
		d.predRBs, d.actRBs, percent(acc.RadioAccuracy()))
	fmt.Fprintf(w, "- compute: predicted %.3e vs actual %.3e cycles, accuracy %s (volume)\n",
		d.predCycles, d.actCycles, percent(acc.ComputeAccuracy()))
	fmt.Fprintf(w, "- waste: predicted %.3e vs actual %.3e bits, accuracy %s (volume)\n",
		d.predWaste, d.actWaste, percent(acc.WasteAccuracy()))
	return nil
}

// demand is the summed predicted and actual demand of a record set.
type demand struct {
	predRBs, actRBs       float64
	predCycles, actCycles float64
	predWaste, actWaste   float64
}

func sumDemand(recs []dtmsvs.TraceRecord) demand {
	var d demand
	for _, r := range recs {
		d.predRBs += r.PredictedRBs
		d.actRBs += r.ActualRBs
		d.predCycles += r.PredictedCycles
		d.actCycles += r.ActualCycles
		d.predWaste += r.PredictedWasteBits
		d.actWaste += r.ActualWasteBits
	}
	return d
}

// percent formats an accuracy, or "n/a" where it is undefined: an
// error (stats.ErrMetric — no record with a nonzero actual, or volume
// predicted where none was served) or NaN.
func percent(acc float64, err error) string {
	if err != nil || math.IsNaN(acc) {
		return "n/a"
	}
	return cli.Percent(acc)
}
