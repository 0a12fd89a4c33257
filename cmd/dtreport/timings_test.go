package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dtmsvs/internal/obs"
)

// TestTimingsStageTableRendersEveryLabel: stage series labelled by
// cell and by worker render as distinct rows that name their labels,
// stages in display order and numbered labels in numeric order,
// whatever order the series were registered in.
func TestTimingsStageTableRendersEveryLabel(t *testing.T) {
	reg := obs.New()
	cell := func(v string) obs.Label { return obs.Label{Name: "cell", Value: v} }
	worker := func(v string) obs.Label { return obs.Label{Name: "worker", Value: v} }
	reg.Stage("coord_boundary", worker("1")).Observe(3 * time.Millisecond)
	reg.Stage("coord_boundary", worker("0")).Observe(2 * time.Millisecond)
	reg.Stage("interval/stream", cell("10")).Observe(5 * time.Millisecond)
	reg.Stage("interval/stream", cell("2")).Observe(4 * time.Millisecond)
	reg.Stage("step").Observe(time.Second)
	var buf bytes.Buffer
	if err := timingsStageTable(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"## Stage timings",
		"",
		"| stage | labels | count | total | mean |",
		"| --- | --- | --- | --- | --- |",
		"| step | - | 1 | 1s | 1s |",
		"| interval/stream | cell=2 | 1 | 4ms | 4ms |",
		"| interval/stream | cell=10 | 1 | 5ms | 5ms |",
		"| coord_boundary | worker=0 | 1 | 2ms | 2ms |",
		"| coord_boundary | worker=1 | 1 | 3ms | 3ms |",
	}
	if got := strings.Split(strings.TrimSpace(buf.String()), "\n"); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("stage table:\n%s\nwant:\n%s", buf.String(), strings.Join(want, "\n"))
	}
}
