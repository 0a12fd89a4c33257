package dtmsvs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReadTraceTornTail cuts an NDJSON, a CSV and a binary trace
// inside its last record. Both entry points must report the damage and
// still return every record before the cut: all but the last for the
// line formats, all but the last interval's block for the binary one.
func TestReadTraceTornTail(t *testing.T) {
	cfg := sessionTestConfig(43, 1)
	open := func(opts ...SessionOption) (Session, error) { return Open(cfg, opts...) }
	want, perInterval := bufferedRun(t, open)
	n := len(want)
	dir := t.TempDir()

	// cutLastLine cuts a line-oriented trace halfway through its last
	// line, which drops fields from a CSV row and leaves an NDJSON
	// object unterminated.
	cutLastLine := func(data []byte) []byte {
		body := bytes.TrimSuffix(data, []byte("\n"))
		start := bytes.LastIndexByte(body, '\n') + 1
		return data[:start+(len(body)-start)/2]
	}
	var nd, cs bytes.Buffer
	runSinkSession(t, open, NewNDJSONSink(&nd))
	runSinkSession(t, open, NewCSVSink(&cs))
	// CSV rounds floats to 10 digits; its prefix is checked against the
	// uncut CSV read back.
	csvWant, err := ReadTraceRecords(bytes.NewReader(cs.Bytes()))
	if err != nil || len(csvWant) != n {
		t.Fatalf("uncut CSV: %d records, %v", len(csvWant), err)
	}
	bin := binRun(t, open)

	for _, tc := range []struct {
		name string
		cut  []byte
		want []TraceRecord
	}{
		{"ndjson", cutLastLine(nd.Bytes()), want[:n-1]},
		{"csv", cutLastLine(cs.Bytes()), csvWant[:n-1]},
		{"bin", bin[:len(bin)-3], want[:n-perInterval[len(perInterval)-1]]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, "trace."+tc.name)
			if err := os.WriteFile(path, tc.cut, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, entry := range []struct {
				name string
				read func() ([]TraceRecord, error)
			}{
				{"ReadTraceRecords", func() ([]TraceRecord, error) { return ReadTraceRecords(bytes.NewReader(tc.cut)) }},
				{"ReadTraceFile", func() ([]TraceRecord, error) { return ReadTraceFile(path) }},
			} {
				got, err := entry.read()
				if err == nil {
					t.Fatalf("%s: torn trace read without error", entry.name)
				}
				if tc.name == "bin" && !errors.Is(err, ErrTraceCorrupt) {
					t.Fatalf("%s: want ErrTraceCorrupt, got %v", entry.name, err)
				}
				if len(got) == 0 {
					t.Fatalf("%s: lost the prefix before the cut: %v", entry.name, err)
				}
				assertRecordsBitIdentical(t, got, tc.want)
			}
		})
	}
}

// TestReadTraceRecordsMalformed: a damaged JSON array, NDJSON line or
// CSV stream is an error from the auto-detecting reader, never an
// empty or partial success. (An empty stream and a lone well-formed
// object are valid traces: no records, and one NDJSON record.)
func TestReadTraceRecordsMalformed(t *testing.T) {
	for _, in := range []string{
		"nope",
		"[",
		`[{"interval": "zero"}]`,
		`[{"bs": "zero"}]`,
		`[1, 2]`,
		`{"interval": "zero"}`,
		"{\"interval\": 1}\nnope",
		"null",
	} {
		if _, err := ReadTraceRecords(strings.NewReader(in)); err == nil {
			t.Errorf("malformed input %q must error", in)
		}
	}
}

// TestReadTraceRecordsZeroRecord: a zero-value record of either schema
// survives every writer and the reader unchanged, and so does an empty
// trace.
func TestReadTraceRecordsZeroRecord(t *testing.T) {
	writers := map[string]func(w *bytes.Buffer) TraceSink{
		"ndjson": func(w *bytes.Buffer) TraceSink { return NewNDJSONSink(w) },
		"csv":    func(w *bytes.Buffer) TraceSink { return NewCSVSink(w) },
		"bin": func(w *bytes.Buffer) TraceSink {
			s, err := NewBinarySink(w)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	for _, recs := range [][]TraceRecord{nil, {{BS: -1}}, {{BS: 0}}} {
		for name, sink := range writers {
			var buf bytes.Buffer
			s := sink(&buf)
			for _, r := range recs {
				if err := s.WriteRecord(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			got, err := ReadTraceRecords(&buf)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, recs, err)
			}
			if len(got) != len(recs) || (len(recs) > 0 && got[0] != recs[0]) {
				t.Fatalf("%s: %+v read back as %+v", name, recs, got)
			}
		}
	}
}
