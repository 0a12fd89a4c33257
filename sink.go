// This file holds the TraceSink implementations: trace records flow
// out of a Session per interval instead of accumulating in the run's
// heap. A session with no sink retains the rows itself (its Trace
// carries them); NDJSONSink and CSVSink stream to any io.Writer with a
// flush at every interval boundary, so a cancelled run leaves a
// well-formed trace prefix behind; DiscardSink keeps nothing
// (statistics-only runs).
package dtmsvs

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"

	"dtmsvs/internal/tracebin"
)

// TraceSink receives trace records as a session produces them. A
// session writes every record of a completed interval, then calls
// Flush — so after any Flush the sink holds a consistent
// whole-interval prefix of the run. An error from either call fails
// the session; a sink that can recover its own faults retries inside
// the call.
type TraceSink interface {
	// WriteRecord receives one trace row.
	WriteRecord(TraceRecord) error
	// Flush pushes buffered rows to the sink's backing store. Called
	// at every interval boundary and by Session.Close.
	Flush() error
}

// NDJSONSink streams records as newline-delimited JSON: one record
// per line, in the engine's record schema (monolithic records carry
// no "bs" field). Decode with ReadTraceRecords or ReadTraceFile.
type NDJSONSink struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewNDJSONSink returns an NDJSON sink over w.
func NewNDJSONSink(w io.Writer) *NDJSONSink {
	bw := bufio.NewWriter(w)
	return &NDJSONSink{bw: bw, enc: json.NewEncoder(bw)}
}

// WriteRecord implements TraceSink, encoding the record as one line.
func (s *NDJSONSink) WriteRecord(r TraceRecord) error { return s.enc.Encode(r) }

// Flush implements TraceSink, pushing buffered lines to the writer.
func (s *NDJSONSink) Flush() error { return s.bw.Flush() }

// CSVSink streams records as CSV, writing the header before the first
// record (the monolithic schema for BS < 0 records, the bs-prefixed
// cluster schema otherwise — a session never mixes the two). Sessions
// tell the sink which schema to expect via SetSchema, so a run that
// ends before its first interval completes (e.g. cancelled during the
// prologue) leaves a header-only file. A bare CSVSink used outside a
// session gets the same behavior by calling SetSchema itself. Decode
// with ReadTraceRecords or ReadTraceFile.
type CSVSink struct {
	cw      *csv.Writer
	rec     TraceRecord // row being written; a local would escape to the heap per record
	row     []string
	started bool
	empty   []string // header to write if Flush comes before any record
}

// NewCSVSink returns a CSV sink over w.
func NewCSVSink(w io.Writer) *CSVSink {
	return &CSVSink{cw: csv.NewWriter(w)}
}

// writeHeader writes header unless a header has already been written.
func (s *CSVSink) writeHeader(header []string) error {
	if s.started {
		return nil
	}
	s.started = true
	if err := s.cw.Write(header); err != nil {
		return fmt.Errorf("write header: %w", err)
	}
	return nil
}

// WriteRecord implements TraceSink, emitting the header first if this
// is the stream's first row.
func (s *CSVSink) WriteRecord(r TraceRecord) error {
	if err := s.writeHeader(tracebin.CSVHeader(r.BS >= 0)); err != nil {
		return err
	}
	s.rec = r
	s.row = s.rec.AppendCSV(s.row[:0])
	return s.cw.Write(s.row)
}

// Flush implements TraceSink: it drains the encoder's buffer to the
// writer, first emitting the SetSchema header if nothing has been
// written yet.
func (s *CSVSink) Flush() error {
	if s.empty != nil {
		if err := s.writeHeader(s.empty); err != nil {
			return err
		}
	}
	s.cw.Flush()
	return s.cw.Error()
}

// SetSchema arms the stream with the record schema so a run that
// flushes with zero records still emits the header row. The sample's
// values are ignored — only its shape matters: BS < 0 selects the
// monolithic column set, BS >= 0 the bs-prefixed cluster set.
// Open/OpenCluster/OpenDistributed call this on any CSVSink passed
// via WithSink; a bare CSVSink used outside a session should call it
// before the first Flush or Close. Once a record has been written (or
// the header emitted) further calls have no effect.
func (s *CSVSink) SetSchema(r TraceRecord) { s.empty = tracebin.CSVHeader(r.BS >= 0) }

// DiscardSink drops every record: attach it when only the run-level
// statistics and interval reports matter, so neither the session nor
// a sink retains the trace.
type DiscardSink struct{}

// WriteRecord implements TraceSink.
func (DiscardSink) WriteRecord(TraceRecord) error { return nil }

// Flush implements TraceSink.
func (DiscardSink) Flush() error { return nil }
