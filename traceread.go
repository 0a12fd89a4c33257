// This file holds the trace reader: one entry point that accepts any
// trace a dtmsvs sink writes (JSON array, NDJSON, CSV in either
// engine's schema, or the binary columnar format), detecting the
// format from the stream's first bytes. The binary and CSV schemas
// come from internal/tracebin's column table, JSON's from the row's
// struct tags.
package dtmsvs

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"dtmsvs/internal/tracebin"
)

// traceFormat names one of the trace encodings this package writes.
type traceFormat string

// The trace encodings detectTraceFormat can report.
const (
	formatJSON   traceFormat = "json"   // indented JSON array (dtsim -format json)
	formatNDJSON traceFormat = "ndjson" // one JSON object per line (NDJSONSink)
	formatCSV    traceFormat = "csv"    // header + rows (CSVSink)
	formatBin    traceFormat = "bin"    // binary columnar (BinarySink)
)

// detectTraceFormat sniffs the trace encoding from the stream's head
// without consuming it: the binary magic bytes, else the first
// non-whitespace byte ('[' a JSON array, '{' NDJSON, anything else
// CSV — every CSV header starts with a letter). An empty stream
// reports CSV, whose reader treats it as an empty trace.
func detectTraceFormat(br *bufio.Reader) traceFormat {
	if head, err := br.Peek(len(tracebin.Magic())); err == nil && bytes.Equal(head, tracebin.Magic()) {
		return formatBin
	}
	// Peek far enough to skip leading whitespace in text formats.
	head, _ := br.Peek(512)
	for _, b := range head {
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		case '[':
			return formatJSON
		case '{':
			return formatNDJSON
		}
		break
	}
	return formatCSV
}

// ReadTraceRecords decodes a trace in any format this package writes
// — JSON array, NDJSON, CSV (monolithic or cluster schema) or binary
// columnar — auto-detected from the stream's first bytes. Rows
// without a serving cell decode with BS = -1. An empty stream is an
// empty trace. On an error in an NDJSON, CSV or binary stream the
// records decoded before it are returned alongside it, so a torn tail
// still yields its readable prefix; a JSON array decodes whole or not
// at all.
func ReadTraceRecords(r io.Reader) ([]TraceRecord, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	if _, err := br.Peek(1); err == io.EOF {
		return nil, nil
	}
	switch detectTraceFormat(br) {
	case formatBin:
		return tracebin.ReadAll(br)
	case formatJSON:
		return readJSONArrayRecords(br)
	case formatNDJSON:
		return readNDJSONRecords(br)
	default:
		return readCSVRecords(br)
	}
}

// ReadTraceFile opens and decodes a trace file in any supported
// format. Like ReadTraceRecords it returns the records decoded before
// an error alongside it.
func ReadTraceFile(path string) ([]TraceRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := ReadTraceRecords(f)
	if err != nil {
		return recs, fmt.Errorf("read trace %s: %w", path, err)
	}
	return recs, nil
}

// readJSONArrayRecords decodes a JSON array of records; TraceRecord's
// UnmarshalJSON accepts both engine schemas per element.
func readJSONArrayRecords(r io.Reader) ([]TraceRecord, error) {
	var out []TraceRecord
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return nil, fmt.Errorf("decode trace: %w", err)
	}
	return out, nil
}

// readNDJSONRecords decodes newline-delimited JSON records until EOF,
// returning the records decoded before an error alongside it.
func readNDJSONRecords(r io.Reader) ([]TraceRecord, error) {
	dec := json.NewDecoder(r)
	var out []TraceRecord
	for {
		var rec TraceRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("decode trace stream: %w", err)
		}
		out = append(out, rec)
	}
}

// readCSVRecords decodes a CSV trace in either engine's schema,
// validating the header against the schema CSVSink writes.
func readCSVRecords(r io.Reader) ([]TraceRecord, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err == io.EOF {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("read trace CSV header: %w", err)
	}
	cell := len(header) > 0 && header[0] == "bs"
	want := tracebin.CSVHeader(cell)
	if len(header) != len(want) {
		return nil, fmt.Errorf("trace CSV header has %d columns, want %d", len(header), len(want))
	}
	for i := range want {
		if header[i] != want[i] {
			return nil, fmt.Errorf("trace CSV column %d is %q, want %q", i, header[i], want[i])
		}
	}
	var out []TraceRecord
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, fmt.Errorf("read trace CSV: %w", err)
		}
		rec, err := tracebin.ParseCSV(row, cell)
		if err != nil {
			return out, fmt.Errorf("trace CSV line %d: %w", line, err)
		}
		out = append(out, rec)
	}
}
