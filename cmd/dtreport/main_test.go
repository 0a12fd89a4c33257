package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dtmsvs"
)

// TestReportSuiteSections: the evaluation report renders every section
// in order, and its bytes depend neither on the worker count nor on
// the call.
func TestReportSuiteSections(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment suite")
	}
	cfg := dtmsvs.Config{
		Seed:             42,
		NumUsers:         40,
		NumBS:            2,
		CatalogSize:      120,
		NumIntervals:     4,
		TicksPerInterval: 10,
		WarmupIntervals:  1,
		CompressorEpochs: 3,
		AgentEpisodes:    30,
		PrefetchDepth:    -1,
	}
	var reports []string
	for _, par := range []int{1, 2, 2} {
		cfg.Parallelism = par
		var buf bytes.Buffer
		if err := reportSuite(context.Background(), &buf, cfg); err != nil {
			t.Fatalf("parallel %d: %v", par, err)
		}
		reports = append(reports, buf.String())
	}
	if reports[0] != reports[1] {
		t.Errorf("report differs between parallelism 1 and 2")
	}
	if reports[1] != reports[2] {
		t.Errorf("report differs between two identical calls")
	}

	var headings []string
	for _, line := range strings.Split(reports[0], "\n") {
		if strings.HasPrefix(line, "## ") {
			headings = append(headings, line)
		}
	}
	want := []string{"Fig. 3 ", "Fig. 3(a) ", "Fig. 3(b) ", "E1 ", "E2 ", "E3 ", "E4 ", "E7 ", "E8 ", "E9 ", "E10 ", "E11 "}
	if len(headings) != len(want) {
		t.Fatalf("%d sections, want %d: %q", len(headings), len(want), headings)
	}
	for i, h := range headings {
		if !strings.HasPrefix(h, "## "+want[i]) {
			t.Errorf("section %d is %q, want %q…", i, h, want[i])
		}
	}
	// Every section carries at least one data row under its header.
	for _, sec := range strings.Split(reports[0], "\n## ")[1:] {
		if strings.Count(sec, "\n| ") < 3 {
			t.Errorf("section without data rows:\n%s", sec)
		}
	}
	if strings.Contains(reports[0], "NaN") {
		t.Errorf("report prints NaN:\n%s", reports[0])
	}
}

// failWriter fails every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestRunReportsWriteError: a destination that rejects writes fails the
// command, even on the -trace path, whose renderer does not check each
// write.
func TestRunReportsWriteError(t *testing.T) {
	var buf bytes.Buffer
	sink := dtmsvs.NewNDJSONSink(&buf)
	if err := sink.WriteRecord(dtmsvs.TraceRecord{BS: -1, GroupIntervalRecord: dtmsvs.GroupIntervalRecord{
		PredictedRBs: 2, ActualRBs: 2, PredictedCycles: 1, ActualCycles: 1,
	}}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-trace", path}, &out); err != nil || !strings.Contains(out.String(), "# Trace summary") {
		t.Fatalf("healthy writer: err %v, output %q", err, out.String())
	}
	if err := run([]string{"-trace", path}, failWriter{}); err == nil {
		t.Fatal("a failing writer went unreported")
	}
}
