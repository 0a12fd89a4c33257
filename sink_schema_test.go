package dtmsvs

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"dtmsvs/internal/tracebin"
)

// TestCSVSinkBareSetSchema: a CSVSink used outside a session learns
// its schema from SetSchema, so flushing with zero records emits the
// same header row a session-managed sink writes — for both the
// monolithic and the cluster column sets.
func TestCSVSinkBareSetSchema(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sample TraceRecord
	}{
		{"sim", TraceRecord{BS: -1}},
		{"cluster", TraceRecord{BS: 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var bare bytes.Buffer
			sink := NewCSVSink(&bare)
			sink.SetSchema(tc.sample)
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			wantHeader := strings.Join(tracebin.CSVHeader(tc.sample.BS >= 0), ",") + "\n"
			if bare.String() != wantHeader {
				t.Fatalf("bare sink header %q want %q", bare.String(), wantHeader)
			}
			// Idempotent: more flushes add nothing, and a later SetSchema
			// cannot rewrite an emitted header.
			sink.SetSchema(tc.sample)
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			if bare.String() != wantHeader {
				t.Fatal("second flush duplicated the header")
			}
		})
	}
}

// TestCSVSinkBareUnarmedStillEmpty pins the pre-SetSchema behavior: a
// bare sink with no schema and no records has nothing to write.
func TestCSVSinkBareUnarmedStillEmpty(t *testing.T) {
	var buf bytes.Buffer
	sink := NewCSVSink(&buf)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("unarmed sink wrote %q", buf.String())
	}
}

// TestCSVSinkSessionHeaderOnEmptyDistributedRun: OpenDistributed arms
// a CSV sink like the other Open variants, so a distributed session
// closed before its first interval leaves a header-only file.
func TestCSVSinkSessionHeaderOnEmptyDistributedRun(t *testing.T) {
	var buf bytes.Buffer
	s, err := OpenDistributed(distTestConfig(3, 1), 2, WithSink(NewCSVSink(&buf)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wantHeader := strings.Join(tracebin.CSVHeader(true), ",") + "\n"
	if buf.String() != wantHeader {
		t.Fatalf("empty distributed run left %q want header only", buf.String())
	}
	// And a completed run puts records under that same header.
	var full bytes.Buffer
	s2, err := OpenDistributed(distTestConfig(3, 1), 2, WithSink(NewCSVSink(&full)))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for !s2.Done() {
		if _, serr := s2.Step(context.Background()); serr != nil {
			t.Fatal(serr)
		}
	}
	if !strings.HasPrefix(full.String(), wantHeader) {
		t.Fatal("completed run missing schema header")
	}
	if strings.Count(full.String(), "\n") < 2 {
		t.Fatal("completed run wrote no records")
	}
}
