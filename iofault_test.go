package dtmsvs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"dtmsvs/internal/parallel"
)

// Deterministic failure injection for the sink and checkpoint I/O
// tests. Faults are scheduled by call index — fail the Nth write,
// short-write the Nth write, fail the Nth flush — so a test can crash
// a run at any chosen point and replay the exact same failure on
// every execution.

// faultMode selects what an injected ioFault does when its call comes
// up.
type faultMode int

const (
	// failWrite fails the Nth write (or WriteRecord) without touching
	// the wrapped writer: no bytes are consumed.
	failWrite faultMode = iota
	// shortWrite passes half of the Nth write's bytes through and then
	// fails. It models a torn write: the wrapped writer has seen a
	// partial record.
	shortWrite
	// failFlush fails the Nth flush before delegating.
	failFlush
)

func (m faultMode) String() string {
	switch m {
	case failWrite:
		return "fail-write"
	case shortWrite:
		return "short-write"
	case failFlush:
		return "fail-flush"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// errInjected is the sentinel every injected failure wraps; match
// with errors.Is to tell injected faults from real I/O errors.
var errInjected = errors.New("injected fault")

// ioFault schedules one failure: mode Mode on the N-th call (1-based)
// of the matching operation.
type ioFault struct {
	Mode faultMode
	N    int
}

// injectedError is the failure an injected ioFault produces.
type injectedError struct {
	Op   string // "write" or "flush"
	Call int    // 1-based call index the fault fired on
}

func (e *injectedError) Error() string {
	return fmt.Sprintf("injected %s fault on call %d", e.Op, e.Call)
}

// Unwrap makes errors.Is(err, errInjected) match.
func (e *injectedError) Unwrap() error { return errInjected }

// faultWriter wraps an io.Writer with byte-level fault injection. Not
// safe for concurrent use.
type faultWriter struct {
	w      io.Writer
	faults []ioFault
	writes int
}

// newFaultWriter wraps w with the given fault schedule.
func newFaultWriter(w io.Writer, faults ...ioFault) *faultWriter {
	return &faultWriter{w: w, faults: faults}
}

// Write implements io.Writer, injecting any fault scheduled for this
// call index before (failWrite) or during (shortWrite) delegation.
func (w *faultWriter) Write(p []byte) (int, error) {
	w.writes++
	for _, f := range w.faults {
		if f.N != w.writes {
			continue
		}
		switch f.Mode {
		case failWrite:
			return 0, &injectedError{Op: "write", Call: w.writes}
		case shortWrite:
			n, err := w.w.Write(p[:len(p)/2])
			if err != nil {
				return n, err
			}
			return n, &injectedError{Op: "write", Call: w.writes}
		}
	}
	return w.w.Write(p)
}

// faultSink wraps a TraceSink with record-level fault injection.
// failWrite and shortWrite faults fire on WriteRecord calls (shortWrite
// at this level degenerates to a failWrite: the record is the unit,
// and the wrapped sink never sees it), failFlush faults on Flush
// calls. Not safe for concurrent use.
type faultSink struct {
	s       TraceSink
	faults  []ioFault
	writes  int
	flushes int
}

// wrapFaults wraps s with the given fault schedule.
func wrapFaults(s TraceSink, faults ...ioFault) *faultSink {
	return &faultSink{s: s, faults: faults}
}

// WriteRecord implements TraceSink, injecting before delegating so a
// failed call leaves the wrapped sink untouched.
func (s *faultSink) WriteRecord(r TraceRecord) error {
	s.writes++
	for _, f := range s.faults {
		if f.N != s.writes {
			continue
		}
		if f.Mode == failWrite || f.Mode == shortWrite {
			return &injectedError{Op: "write", Call: s.writes}
		}
	}
	return s.s.WriteRecord(r)
}

// Flush implements TraceSink.
func (s *faultSink) Flush() error {
	s.flushes++
	for _, f := range s.faults {
		if f.Mode == failFlush && f.N == s.flushes {
			return &injectedError{Op: "flush", Call: s.flushes}
		}
	}
	return s.s.Flush()
}

// faultPlan derives a deterministic fault from a seed: the mode and
// the 1-based call index within [1, calls] are drawn from the seed's
// splitmix64 stream, so a test sweeping seeds exercises a spread of
// failure points that is stable across runs.
func faultPlan(seed int64, calls int) ioFault {
	if calls < 1 {
		calls = 1
	}
	rng := rand.New(parallel.NewStream(seed, 0xFA01))
	return ioFault{
		Mode: faultMode(rng.Intn(3)),
		N:    1 + rng.Intn(calls),
	}
}

// recordCollector is a minimal TraceSink for the wrapper tests.
type recordCollector struct {
	records []TraceRecord
	flushes int
}

func (c *recordCollector) WriteRecord(r TraceRecord) error {
	c.records = append(c.records, r)
	return nil
}

func (c *recordCollector) Flush() error { c.flushes++; return nil }

// TestWriterFaults: failWrite consumes nothing, shortWrite leaks half,
// and unscheduled calls pass through untouched.
func TestWriterFaults(t *testing.T) {
	var buf bytes.Buffer
	w := newFaultWriter(&buf,
		ioFault{Mode: failWrite, N: 2},
		ioFault{Mode: shortWrite, N: 4},
	)
	if _, err := w.Write([]byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	n, err := w.Write([]byte("bbbb"))
	if n != 0 || !errors.Is(err, errInjected) {
		t.Fatalf("failWrite: n=%d err=%v", n, err)
	}
	var fe *injectedError
	if !errors.As(err, &fe) || fe.Op != "write" || fe.Call != 2 {
		t.Fatalf("failWrite error shape: %+v", fe)
	}
	if buf.String() != "aaaa" {
		t.Fatalf("failWrite consumed bytes: %q", buf.String())
	}
	if _, err := w.Write([]byte("cccc")); err != nil {
		t.Fatal(err)
	}
	n, err = w.Write([]byte("dddd"))
	if n != 2 || !errors.Is(err, errInjected) {
		t.Fatalf("shortWrite: n=%d err=%v", n, err)
	}
	if !errors.As(err, &fe) || fe.Op != "write" || fe.Call != 4 {
		t.Fatalf("shortWrite error shape: %+v", fe)
	}
	if buf.String() != "aaaaccccdd" {
		t.Fatalf("shortWrite leaked wrong bytes: %q", buf.String())
	}
	if w.writes != 4 {
		t.Fatalf("writes: %d", w.writes)
	}
}

// TestSinkFaults: record-level injection fires before the wrapped
// sink sees anything, flush faults fire on their scheduled call, and
// counts include calls that fail.
func TestSinkFaults(t *testing.T) {
	var c recordCollector
	s := wrapFaults(&c,
		ioFault{Mode: failWrite, N: 2},
		ioFault{Mode: failFlush, N: 2},
	)
	if err := s.WriteRecord(TraceRecord{BS: 10}); err != nil {
		t.Fatal(err)
	}
	err := s.WriteRecord(TraceRecord{BS: 11})
	if !errors.Is(err, errInjected) {
		t.Fatalf("want injected write fault, got %v", err)
	}
	if len(c.records) != 1 {
		t.Fatalf("fault leaked a record: %v", c.records)
	}
	// Call 3 is past the schedule and succeeds.
	if err := s.WriteRecord(TraceRecord{BS: 11}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); !errors.Is(err, errInjected) {
		t.Fatalf("want injected flush fault, got %v", err)
	}
	if c.flushes != 1 {
		t.Fatalf("flush fault reached the sink: %d", c.flushes)
	}
	if s.writes != 3 || s.flushes != 2 {
		t.Fatalf("counts: writes=%d flushes=%d", s.writes, s.flushes)
	}
}

// TestPlan: deterministic per seed and in range.
func TestPlan(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		f := faultPlan(seed, 10)
		if f != faultPlan(seed, 10) {
			t.Fatalf("seed %d: plan not deterministic", seed)
		}
		if f.N < 1 || f.N > 10 {
			t.Fatalf("seed %d: N=%d out of range", seed, f.N)
		}
		if f.Mode < failWrite || f.Mode > failFlush {
			t.Fatalf("seed %d: mode %v", seed, f.Mode)
		}
	}
	if f := faultPlan(3, 0); f.N != 1 {
		t.Fatalf("degenerate calls: %+v", f)
	}
}
