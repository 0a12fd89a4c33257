// dtreport -timings: render a metrics snapshot written by
// `dtsim -metrics-out` (or any obs.Registry WriteJSON dump) as
// markdown tables — per-stage wall-clock timings by cell or worker, edge
// cache effectiveness, and the remaining counters and gauges.
package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"dtmsvs/internal/cli"
	"dtmsvs/internal/obs"
)

// reportTimings reads the snapshot at path and writes the timing
// report to w.
func reportTimings(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	snap, err := obs.ReadSnapshot(f)
	if err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	fmt.Fprintf(w, "# dtmsvs timing report\n\nSnapshot: %s.\n\n", path)
	if err := timingsStageTable(w, snap); err != nil {
		return err
	}
	if err := timingsCacheTable(w, snap); err != nil {
		return err
	}
	if err := timingsFailureTable(w, snap); err != nil {
		return err
	}
	return timingsCounterTable(w, snap)
}

// timingsFailureTable renders the cluster failure-model counters as
// their own section when the run saw injected cell failures; healthy
// snapshots skip it (the zero-valued families still appear in the
// generic counter table).
func timingsFailureTable(w io.Writer, snap *obs.Snapshot) error {
	failures := snap.Family("dtmsvs_cell_failures_total")
	if failures == nil || len(failures.Series) == 0 || failures.Series[0].Value == 0 {
		return nil
	}
	fmt.Fprintf(w, "## Failure and degradation\n\n")
	t, err := cli.NewTable("metric", "value")
	if err != nil {
		return err
	}
	for _, name := range []string{
		"dtmsvs_cell_failures_total",
		"dtmsvs_cell_revivals_total",
		"dtmsvs_evacuated_twins_total",
		"dtmsvs_degraded_intervals_total",
		"dtmsvs_cells_down",
	} {
		fam := snap.Family(name)
		if fam == nil || len(fam.Series) == 0 {
			continue
		}
		if err := t.AddRow(name, strconv.FormatFloat(fam.Series[0].Value, 'g', -1, 64)); err != nil {
			return err
		}
	}
	if err := t.WriteMarkdown(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

// timingsStageTable renders the stage-duration histogram family:
// one row per series with its labels besides the stage (cell, worker),
// count, total and mean.
func timingsStageTable(w io.Writer, snap *obs.Snapshot) error {
	fam := snap.Family(obs.StageFamily)
	if fam == nil || len(fam.Series) == 0 {
		fmt.Fprintf(w, "No stage timings in snapshot (was the registry mounted?).\n\n")
		return nil
	}
	fmt.Fprintf(w, "## Stage timings\n\n")
	t, err := cli.NewTable("stage", "labels", "count", "total", "mean")
	if err != nil {
		return err
	}
	// Group by stage (prologue first, then interval phases, then the
	// rest alphabetically), then by the other labels, shorter first, so
	// cell 2 precedes cell 10.
	series := append([]obs.Series(nil), fam.Series...)
	sort.SliceStable(series, func(i, j int) bool {
		si, sj := series[i].Label("stage"), series[j].Label("stage")
		if si != sj {
			return stageRank(si) < stageRank(sj) || (stageRank(si) == stageRank(sj) && si < sj)
		}
		li, lj := joinLabels(series[i].Labels, "stage"), joinLabels(series[j].Labels, "stage")
		return len(li) < len(lj) || (len(li) == len(lj) && li < lj)
	})
	for _, s := range series {
		total := time.Duration(s.Sum * float64(time.Second))
		mean := time.Duration(0)
		if s.Count > 0 {
			mean = total / time.Duration(s.Count)
		}
		if err := t.AddRow(s.Label("stage"), joinLabels(s.Labels, "stage"), s.Count,
			formatDur(total), formatDur(mean)); err != nil {
			return err
		}
	}
	if err := t.WriteMarkdown(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

// joinLabels renders labels as name=value pairs, skipping the one
// named skip, or "-" when none is left.
func joinLabels(labels []obs.Label, skip string) string {
	parts := make([]string, 0, len(labels))
	for _, l := range labels {
		if l.Name != skip {
			parts = append(parts, l.Name+"="+l.Value)
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, ",")
}

// stageRank orders stage names for display: the step envelope, the
// prologue phases, then per-interval phases, then everything else.
func stageRank(stage string) int {
	switch {
	case stage == "step":
		return 0
	case strings.HasPrefix(stage, "prologue/"):
		return 1
	case strings.HasPrefix(stage, "interval/"):
		return 2
	}
	return 3
}

// timingsCacheTable renders per-cell edge cache effectiveness.
func timingsCacheTable(w io.Writer, snap *obs.Snapshot) error {
	hits := snap.Family("dtmsvs_edge_cache_hits_total")
	if hits == nil || len(hits.Series) == 0 {
		return nil
	}
	misses := snap.Family("dtmsvs_edge_cache_misses_total")
	evics := snap.Family("dtmsvs_edge_cache_evictions_total")
	fmt.Fprintf(w, "## Edge cache\n\n")
	t, err := cli.NewTable("cell", "hits", "misses", "evictions", "hit rate")
	if err != nil {
		return err
	}
	for _, s := range hits.Series {
		cell := s.Label("cell")
		h := s.Value
		m := seriesValue(misses, "cell", cell)
		e := seriesValue(evics, "cell", cell)
		rate := "n/a"
		if h+m > 0 {
			rate = cli.Percent(h / (h + m))
		}
		label := cell
		if label == "" {
			label = "-"
		}
		if err := t.AddRow(label, uint64(h), uint64(m), uint64(e), rate); err != nil {
			return err
		}
	}
	if err := t.WriteMarkdown(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

// seriesValue finds the series in fam whose label `name` equals
// `value` and returns its value (0 when absent).
func seriesValue(fam *obs.Family, name, value string) float64 {
	if fam == nil {
		return 0
	}
	for _, s := range fam.Series {
		if s.Label(name) == value {
			return s.Value
		}
	}
	return 0
}

// timingsCounterTable renders the non-histogram families.
func timingsCounterTable(w io.Writer, snap *obs.Snapshot) error {
	fmt.Fprintf(w, "## Counters and gauges\n\n")
	t, err := cli.NewTable("metric", "labels", "value")
	if err != nil {
		return err
	}
	for _, fam := range snap.Families {
		if fam.Kind == "histogram" || strings.HasPrefix(fam.Name, "dtmsvs_edge_cache_") {
			continue
		}
		for _, s := range fam.Series {
			if err := t.AddRow(fam.Name, joinLabels(s.Labels, ""), strconv.FormatFloat(s.Value, 'g', -1, 64)); err != nil {
				return err
			}
		}
	}
	return t.WriteMarkdown(w)
}

// formatDur renders a duration rounded for table display.
func formatDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	}
	return d.Round(100 * time.Nanosecond).String()
}
