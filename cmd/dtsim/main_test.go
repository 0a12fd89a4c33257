package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"dtmsvs"
)

// TestWriteBufferedPinned pins the bytes of the -format json array:
// the empty run writes [] (a nil slice would encode as null, which
// ReadTraceRecords does not detect as JSON), monolithic records carry
// no "bs" field and cluster records lead with it. Every non-empty
// output must read back to the records it was written from.
func TestWriteBufferedPinned(t *testing.T) {
	a := dtmsvs.GroupIntervalRecord{Interval: 0, GroupID: 1, Size: 12, PredictedRBs: 2.5, ActualRBs: 2.75,
		AllocatedRBs: 3, PredictedCycles: 2e9, ActualCycles: 1.9e9, PredictedBits: 6e8, ActualBits: 6.1e8,
		PredictedWasteBits: 1e6, ActualWasteBits: 0.5e6, ActualEngagementS: 41.25, WorstSNRdB: 8.5, BitrateBps: 1.85e6}
	b := dtmsvs.GroupIntervalRecord{Interval: 1, GroupID: 0, Size: 7, PredictedRBs: 1.0 / 3, ActualRBs: 1.25,
		PredictedBits: 3e8, ActualBits: 3.1e8, ActualEngagementS: 7, WorstSNRdB: -2.125, BitrateBps: 2.5e6}
	for _, tc := range []struct {
		name    string
		records []dtmsvs.TraceRecord
		sha256  string
	}{
		{"empty", nil,
			"37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"},
		{"mono", []dtmsvs.TraceRecord{{BS: -1, GroupIntervalRecord: a}, {BS: -1, GroupIntervalRecord: b}},
			"69c3ae415c936956480d831861cd4efedf3a6932363285e8de39032029f6d534"},
		{"cluster", []dtmsvs.TraceRecord{{BS: 0, GroupIntervalRecord: a}, {BS: 3, GroupIntervalRecord: b}},
			"42c99867ab7fee123d35c2f05f145f365ba4ccac5a095a2f3550140de2a79a1e"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := writeBuffered(&buf, &dtmsvs.BufferedSink{Records: tc.records}); err != nil {
				t.Fatal(err)
			}
			if tc.records == nil && buf.String() != "[]\n" {
				t.Fatalf("empty run wrote %q, want %q", buf.String(), "[]\n")
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.sha256 {
				t.Fatalf("json trace digest\n got %s\nwant %s\n%s", got, tc.sha256, buf.String())
			}
			back, err := dtmsvs.ReadTraceRecords(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(back) != len(tc.records) || (len(back) > 0 && !reflect.DeepEqual(back, tc.records)) {
				t.Fatalf("read back %+v, want %+v", back, tc.records)
			}
		})
	}
}

// midStepCancel is a context that, once armed, is cancelled inside the
// next Step: that Step's boundary check still reads nil from Err, and
// the check closes Done, so the engine stops part-way through the
// interval and every later Err reads context.Canceled.
type midStepCancel struct {
	context.Context
	mu     sync.Mutex
	armed  bool
	fired  bool
	doneCh chan struct{}
}

func newMidStepCancel() *midStepCancel {
	return &midStepCancel{Context: context.Background(), doneCh: make(chan struct{})}
}

func (c *midStepCancel) arm() {
	c.mu.Lock()
	c.armed = true
	c.mu.Unlock()
}

func (c *midStepCancel) Done() <-chan struct{} { return c.doneCh }

func (c *midStepCancel) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.fired:
		return context.Canceled
	case c.armed:
		c.fired = true
		close(c.doneCh)
	}
	return nil
}

// TestInterruptInsideIntervalKeepsCheckpoint: an interrupt that lands
// inside an interval fails the session, so stepRun leaves the last
// boundary's checkpoint file as it was, reports the interval it resumes
// from and no error; that file resumes into the uninterrupted run's
// trace suffix byte for byte.
func TestInterruptInsideIntervalKeepsCheckpoint(t *testing.T) {
	cfg := dtmsvs.DefaultConfig(7)
	cfg.NumUsers, cfg.NumBS, cfg.NumIntervals = 60, 2, 5
	var full bytes.Buffer
	s, err := dtmsvs.Open(cfg, dtmsvs.WithSink(dtmsvs.NewNDJSONSink(&full)))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := stepRun(context.Background(), s, "", 1, -1); err != nil {
		t.Fatal(err)
	}
	s.Close()

	const cut = 2 // intervals completed before the interrupt
	ctx := newMidStepCancel()
	var part1 bytes.Buffer
	s, err = dtmsvs.Open(cfg, dtmsvs.WithSink(dtmsvs.NewNDJSONSink(&part1)),
		dtmsvs.WithObserver(func(rep dtmsvs.IntervalReport) {
			if rep.Interval == cut-1 {
				ctx.arm()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	at, interrupted, err := stepRun(ctx, s, path, 1, -1)
	if err != nil || !interrupted || at != cut || s.Interval() != cut {
		t.Fatalf("stepRun = (%d, %v, %v) at interval %d, want (%d, true, <nil>) at %d",
			at, interrupted, err, s.Interval(), cut, cut)
	}
	// The cancellation fired inside the Step: the session failed.
	if cerr := s.Checkpoint(io.Discard); !errors.Is(cerr, context.Canceled) {
		t.Fatalf("checkpoint after the interrupt: want the failed session's cancellation, got %v", cerr)
	}
	s.Close()

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var part2 bytes.Buffer
	r, err := dtmsvs.Resume(cfg, f, dtmsvs.WithSink(dtmsvs.NewNDJSONSink(&part2)))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Interval() != cut {
		t.Fatalf("checkpoint resumes at interval %d, want %d", r.Interval(), cut)
	}
	if _, _, err := stepRun(context.Background(), r, "", 1, -1); err != nil {
		t.Fatal(err)
	}
	if got := part1.String() + part2.String(); got != full.String() {
		t.Fatalf("interrupted prefix + resumed suffix (%d + %d bytes) differ from the uninterrupted run (%d bytes)",
			part1.Len(), part2.Len(), full.Len())
	}
}
