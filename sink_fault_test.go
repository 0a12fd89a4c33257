package dtmsvs

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
)

// runWithSink steps a fresh monolithic session against sink until
// done or the first error, returning that error.
func runWithSink(t *testing.T, cfg Config, sink TraceSink, opts ...SessionOption) (Session, error) {
	t.Helper()
	s, err := Open(cfg, append([]SessionOption{WithSink(sink)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	for !s.Done() {
		if _, serr := s.Step(context.Background()); serr != nil {
			return s, serr
		}
	}
	return s, nil
}

// completeLines reports whether every byte of an NDJSON stream
// belongs to a newline-terminated record.
func completeLines(s string) bool {
	return s == "" || strings.HasSuffix(s, "\n")
}

// TestSessionSinkRecordFaults: a sink failing on WriteRecord — both
// abruptly and via a short write — surfaces as ErrSink from Step,
// never from Close, and the backing store never gains bytes after the
// reported error.
func TestSessionSinkRecordFaults(t *testing.T) {
	cfg := sessionTestConfig(21, 2)
	clean, perInterval := ndjsonRun(t, func(opts ...SessionOption) (Session, error) { return Open(cfg, opts...) })

	for _, mode := range []faultMode{failWrite, shortWrite} {
		t.Run(mode.String(), func(t *testing.T) {
			// Fail midway through interval 1's records.
			fault := ioFault{Mode: mode, N: perInterval[0] + 1 + perInterval[1]/2}
			var buf bytes.Buffer
			sink := wrapFaults(NewNDJSONSink(&buf), fault)
			s, serr := runWithSink(t, cfg, sink)
			if !errors.Is(serr, ErrSink) || !errors.Is(serr, errInjected) {
				t.Fatalf("want ErrSink wrapping injected fault, got %v", serr)
			}
			var ie *injectedError
			if !errors.As(serr, &ie) || ie.Op != "write" {
				t.Fatalf("injected error unreachable through the chain: %v", serr)
			}
			frozen := buf.String()
			if frozen != linePrefix(clean, perInterval[0]) {
				t.Fatal("backing store holds more than the last whole-interval flush")
			}
			// The session is permanently failed; Close must not push the
			// torn interval out.
			if _, serr := s.Step(context.Background()); !errors.Is(serr, ErrSink) {
				t.Fatalf("step after sink failure: want the latched ErrSink, got %v", serr)
			}
			if cerr := s.Close(); cerr != nil {
				t.Fatalf("close after sink failure: %v", cerr)
			}
			if buf.String() != frozen {
				t.Fatal("Close grew the backing store after a reported sink error")
			}
		})
	}
}

// TestSessionSinkFlushFault: a sink whose Flush fails surfaces
// ErrSink from the Step that hit the boundary, freezes the backing
// store, and keeps Close quiet.
func TestSessionSinkFlushFault(t *testing.T) {
	cfg := sessionTestConfig(21, 2)
	clean, perInterval := ndjsonRun(t, func(opts ...SessionOption) (Session, error) { return Open(cfg, opts...) })

	// The session flushes once per completed interval; fail the second.
	var buf bytes.Buffer
	sink := wrapFaults(NewNDJSONSink(&buf), ioFault{Mode: failFlush, N: 2})
	s, serr := runWithSink(t, cfg, sink)
	if !errors.Is(serr, ErrSink) || !errors.Is(serr, errInjected) {
		t.Fatalf("want ErrSink wrapping injected flush fault, got %v", serr)
	}
	frozen := buf.String()
	if frozen != linePrefix(clean, perInterval[0]) {
		t.Fatal("backing store diverged from the last successful flush")
	}
	if cerr := s.Close(); cerr != nil {
		t.Fatalf("close after flush failure: %v", cerr)
	}
	if buf.String() != frozen {
		t.Fatal("Close re-flushed a sink that already reported failure")
	}
}

// TestSessionSinkByteLevelFaults: NDJSON and CSV sinks over an
// io.Writer that fails or short-writes keep the session contract —
// the error comes out of Step as ErrSink, and whatever reached the
// backing store before the failure is a whole-record (line) prefix
// with nothing appended afterwards.
func TestSessionSinkByteLevelFaults(t *testing.T) {
	cfg := sessionTestConfig(23, 2)
	for _, tc := range []struct {
		name string
		mk   func(w *faultWriter) TraceSink
	}{
		{"ndjson", func(w *faultWriter) TraceSink { return NewNDJSONSink(w) }},
		{"csv", func(w *faultWriter) TraceSink { return NewCSVSink(w) }},
	} {
		for _, mode := range []faultMode{failWrite, shortWrite} {
			t.Run(tc.name+"/"+mode.String(), func(t *testing.T) {
				// Both stream sinks buffer and hit the io.Writer on Flush;
				// fail the second flush's write.
				var buf bytes.Buffer
				fw := newFaultWriter(&buf, ioFault{Mode: mode, N: 2})
				s, serr := runWithSink(t, cfg, tc.mk(fw))
				if !errors.Is(serr, ErrSink) {
					t.Fatalf("want ErrSink, got %v", serr)
				}
				frozen := buf.String()
				if mode == failWrite && !completeLines(frozen) {
					t.Fatalf("fail-write leaked a partial record: %q", frozen[max(0, len(frozen)-60):])
				}
				if cerr := s.Close(); cerr != nil {
					t.Fatalf("close after byte-level fault: %v", cerr)
				}
				if buf.String() != frozen {
					t.Fatal("Close pushed bytes after the reported error")
				}
			})
		}
	}
}

// TestSessionSinkTransientRetry: an error that calls itself transient
// is as final as any other. The first one fails Step with ErrSink, the
// failed record is written exactly once, and the backing store keeps
// the whole-interval prefix of the last good flush.
func TestSessionSinkTransientRetry(t *testing.T) {
	cfg := sessionTestConfig(25, 2)
	clean, perInterval := ndjsonRun(t, func(opts ...SessionOption) (Session, error) { return Open(cfg, opts...) })

	var buf bytes.Buffer
	at := perInterval[0] + 2
	sink := &transientSink{TraceSink: NewNDJSONSink(&buf), writeAt: at}
	s, serr := runWithSink(t, cfg, sink)
	if !errors.Is(serr, ErrSink) || !errors.Is(serr, transientSinkErr{}) {
		t.Fatalf("want ErrSink wrapping the transient fault, got %v", serr)
	}
	if sink.writes != at {
		t.Fatalf("sink saw %d writes, want %d: the failed record was written again", sink.writes, at)
	}
	if cerr := s.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if buf.String() != linePrefix(clean, perInterval[0]) {
		t.Fatal("backing store is not the last whole-interval prefix")
	}
}

// transientSinkErr is a sink failure that advertises itself as
// transient, minted by the tests.
type transientSinkErr struct{}

func (transientSinkErr) Error() string   { return "transient sink outage" }
func (transientSinkErr) Transient() bool { return true }

// transientSink fails its writeAt-th WriteRecord or flushAt-th Flush
// with transientSinkErr before delegating, and counts every call.
type transientSink struct {
	TraceSink
	writeAt, flushAt int
	writes, flushes  int
}

func (s *transientSink) WriteRecord(r TraceRecord) error {
	if s.writes++; s.writes == s.writeAt {
		return transientSinkErr{}
	}
	return s.TraceSink.WriteRecord(r)
}

func (s *transientSink) Flush() error {
	if s.flushes++; s.flushes == s.flushAt {
		return transientSinkErr{}
	}
	return s.TraceSink.Flush()
}

// TestSessionSinkFailureSequencing: after a permanent mid-interval
// WriteRecord failure, the session's error surface stays typed and
// stable — Step returns the latched ErrSink, Checkpoint refuses with
// the same chain, the broken sink never sees another Flush (a second
// scheduled flush fault never gets the chance to fire), and the
// backing store stays a whole-interval prefix through Close.
func TestSessionSinkFailureSequencing(t *testing.T) {
	cfg := sessionTestConfig(21, 2)
	clean, perInterval := ndjsonRun(t, func(opts ...SessionOption) (Session, error) { return Open(cfg, opts...) })

	var buf bytes.Buffer
	sink := wrapFaults(NewNDJSONSink(&buf),
		ioFault{Mode: failWrite, N: perInterval[0] + 1 + perInterval[1]/2},
		ioFault{Mode: failFlush, N: 2},
	)
	s, serr := runWithSink(t, cfg, sink)
	if !errors.Is(serr, ErrSink) || !errors.Is(serr, errInjected) {
		t.Fatalf("want ErrSink wrapping the injected write fault, got %v", serr)
	}
	frozen := buf.String()
	if frozen != linePrefix(clean, perInterval[0]) || !completeLines(frozen) {
		t.Fatal("backing store is not the last whole-interval prefix")
	}
	flushes := sink.flushes

	if _, again := s.Step(context.Background()); !errors.Is(again, ErrSink) {
		t.Fatalf("step after failure: want the latched ErrSink, got %v", again)
	}
	cerr := s.Checkpoint(io.Discard)
	if !errors.Is(cerr, ErrSink) || !errors.Is(cerr, errInjected) {
		t.Fatalf("checkpoint of sink-broken session: want the typed step failure, got %v", cerr)
	}
	if cerr := s.Close(); cerr != nil {
		t.Fatalf("close after sink failure: %v", cerr)
	}
	if sink.flushes != flushes {
		t.Fatalf("broken sink flushed again: %d -> %d", flushes, sink.flushes)
	}
	if buf.String() != frozen {
		t.Fatal("bytes appended to the backing store after the reported failure")
	}
}
