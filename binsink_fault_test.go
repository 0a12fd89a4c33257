package dtmsvs

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"dtmsvs/internal/tracebin"
)

// assertWholeIntervalPrefix decodes a (possibly torn) binary backing
// store and asserts every decoded record is the corresponding record
// of the clean run — i.e. the store is a readable prefix — and that
// the decoded count sits on an interval boundary of the clean run's
// per-interval counts.
func assertWholeIntervalPrefix(t *testing.T, store []byte, clean []TraceRecord, perInterval []int) {
	t.Helper()
	got, err := tracebin.ReadAll(bytes.NewReader(store))
	if err != nil && !errors.Is(err, ErrTraceCorrupt) {
		t.Fatalf("backing store failed with an untyped error: %v", err)
	}
	if len(got) > len(clean) {
		t.Fatalf("store decoded %d records, clean run has %d", len(got), len(clean))
	}
	assertRecordsBitIdentical(t, got, clean[:len(got)])
	boundary := false
	sum := 0
	for _, n := range append([]int{0}, perInterval...) {
		sum += n
		if len(got) == sum {
			boundary = true
			break
		}
	}
	if !boundary {
		t.Fatalf("store holds %d records — not a whole-interval count %v", len(got), perInterval)
	}
}

// TestBinarySinkRecordFaults: record-level injected faults over a
// BinarySink (the PR 6 sink wrappers) keep the session contract for
// both engines — Step surfaces ErrSink, the backing store stays a
// fully readable whole-interval binary prefix, and Close appends
// nothing.
func TestBinarySinkRecordFaults(t *testing.T) {
	for _, eng := range []struct {
		name string
		open func(opts ...SessionOption) (Session, error)
	}{
		{"sim", func(opts ...SessionOption) (Session, error) { return Open(sessionTestConfig(43, 2), opts...) }},
		{"cluster", func(opts ...SessionOption) (Session, error) {
			return OpenCluster(clusterTestConfig(43, 2), opts...)
		}},
	} {
		t.Run(eng.name, func(t *testing.T) {
			clean, perInterval := bufferedRun(t, eng.open)
			for _, mode := range []faultMode{failWrite, shortWrite} {
				t.Run(mode.String(), func(t *testing.T) {
					// Fail midway through interval 1's records.
					fault := ioFault{Mode: mode, N: perInterval[0] + 1 + perInterval[1]/2}
					var buf bytes.Buffer
					bin, err := NewBinarySink(&buf)
					if err != nil {
						t.Fatal(err)
					}
					sink := wrapFaults(bin, fault)
					s, err := eng.open(WithSink(sink))
					if err != nil {
						t.Fatal(err)
					}
					var serr error
					for !s.Done() {
						if _, serr = s.Step(context.Background()); serr != nil {
							break
						}
					}
					if !errors.Is(serr, ErrSink) || !errors.Is(serr, errInjected) {
						t.Fatalf("want ErrSink wrapping injected fault, got %v", serr)
					}
					frozen := append([]byte(nil), buf.Bytes()...)
					if cerr := s.Close(); cerr != nil {
						t.Fatalf("close after sink failure: %v", cerr)
					}
					if cerr := bin.Close(); cerr != nil {
						t.Fatalf("binary sink close: %v", cerr)
					}
					if !bytes.Equal(buf.Bytes(), frozen) {
						t.Fatal("Close grew the backing store after a reported sink error")
					}
					got, rerr := tracebin.ReadAll(bytes.NewReader(frozen))
					if rerr != nil {
						t.Fatalf("store after record fault not cleanly readable: %v", rerr)
					}
					if len(got) != perInterval[0] {
						t.Fatalf("store holds %d records, want exactly interval 0's %d", len(got), perInterval[0])
					}
					assertRecordsBitIdentical(t, got, clean[:perInterval[0]])
				})
			}
		})
	}
}

// TestBinarySinkFlushFault: an injected flush failure freezes the
// store at the previous interval boundary, and the latched sink never
// flushes again.
func TestBinarySinkFlushFault(t *testing.T) {
	open := func(opts ...SessionOption) (Session, error) { return Open(sessionTestConfig(45, 2), opts...) }
	clean, perInterval := bufferedRun(t, open)

	var buf bytes.Buffer
	bin, err := NewBinarySink(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sink := wrapFaults(bin, ioFault{Mode: failFlush, N: 2})
	s, err := open(WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	for !s.Done() {
		if _, serr = s.Step(context.Background()); serr != nil {
			break
		}
	}
	if !errors.Is(serr, ErrSink) || !errors.Is(serr, errInjected) {
		t.Fatalf("want ErrSink wrapping injected flush fault, got %v", serr)
	}
	frozen := append([]byte(nil), buf.Bytes()...)
	flushes := sink.flushes
	if cerr := s.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if sink.flushes != flushes {
		t.Fatal("broken sink flushed again on Close")
	}
	if !bytes.Equal(buf.Bytes(), frozen) {
		t.Fatal("Close appended bytes after the reported flush failure")
	}
	got, rerr := tracebin.ReadAll(bytes.NewReader(frozen))
	if rerr != nil {
		t.Fatalf("store after flush fault unreadable: %v", rerr)
	}
	assertRecordsBitIdentical(t, got, clean[:perInterval[0]])
}

// TestBinarySinkByteLevelFaults: a BinarySink over an io.Writer that
// fails or short-writes. failWrite consumes nothing, so the store is
// exactly the last whole-interval flush and decodes cleanly;
// shortWrite leaves a torn frame whose readable prefix is still
// whole-interval records, with the damage typed as ErrTraceCorrupt.
func TestBinarySinkByteLevelFaults(t *testing.T) {
	open := func(opts ...SessionOption) (Session, error) { return Open(sessionTestConfig(47, 2), opts...) }
	clean, perInterval := bufferedRun(t, open)

	for _, mode := range []faultMode{failWrite, shortWrite} {
		t.Run(mode.String(), func(t *testing.T) {
			var buf bytes.Buffer
			// The sink issues one underlying Write per flush (header
			// included in the first); fail the second flush's write.
			fw := newFaultWriter(&buf, ioFault{Mode: mode, N: 2})
			bin, err := NewBinarySink(fw)
			if err != nil {
				t.Fatal(err)
			}
			s, err := open(WithSink(bin))
			if err != nil {
				t.Fatal(err)
			}
			var serr error
			for !s.Done() {
				if _, serr = s.Step(context.Background()); serr != nil {
					break
				}
			}
			if !errors.Is(serr, ErrSink) {
				t.Fatalf("want ErrSink, got %v", serr)
			}
			frozen := append([]byte(nil), buf.Bytes()...)
			if cerr := s.Close(); cerr != nil {
				t.Fatal(cerr)
			}
			if cerr := bin.Close(); cerr != nil {
				t.Fatalf("binary sink close after byte fault: %v", cerr)
			}
			if !bytes.Equal(buf.Bytes(), frozen) {
				t.Fatal("bytes appended after the reported error")
			}
			if mode == failWrite {
				got, rerr := tracebin.ReadAll(bytes.NewReader(frozen))
				if rerr != nil {
					t.Fatalf("fail-write store not cleanly readable: %v", rerr)
				}
				assertRecordsBitIdentical(t, got, clean[:perInterval[0]])
			} else {
				assertWholeIntervalPrefix(t, frozen, clean, perInterval)
			}
		})
	}
}

// TestBinarySinkTransientRetry: a Flush error that calls itself
// transient fails the step like any other, and the backing store
// decodes to the whole-interval prefix of the last good flush.
func TestBinarySinkTransientRetry(t *testing.T) {
	open := func(opts ...SessionOption) (Session, error) { return Open(sessionTestConfig(49, 2), opts...) }
	clean, perInterval := bufferedRun(t, open)

	var buf bytes.Buffer
	bin, err := NewBinarySink(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sink := &transientSink{TraceSink: bin, flushAt: 2}
	s, err := open(WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	for !s.Done() && serr == nil {
		_, serr = s.Step(context.Background())
	}
	if !errors.Is(serr, ErrSink) || !errors.Is(serr, transientSinkErr{}) {
		t.Fatalf("want ErrSink wrapping the transient flush fault, got %v", serr)
	}
	if cerr := s.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if cerr := bin.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	got, rerr := tracebin.ReadAll(bytes.NewReader(buf.Bytes()))
	if rerr != nil {
		t.Fatal(rerr)
	}
	assertRecordsBitIdentical(t, got, clean[:perInterval[0]])
}
