// This file holds the binary columnar trace sink: the compact
// streaming alternative to NDJSON/CSV when a run is trace-IO-bound.
// The format itself lives in internal/tracebin.
package dtmsvs

import (
	"io"

	"dtmsvs/internal/tracebin"
)

// Typed binary-trace reader errors, re-exported so callers can
// distinguish damage from a future format without importing the
// internal package.
var (
	// ErrTraceCorrupt marks a binary trace whose framing, checksums or
	// schema do not hold together.
	ErrTraceCorrupt = tracebin.ErrCorrupt
	// ErrTraceVersion marks a binary trace written by a format version
	// this build does not understand.
	ErrTraceVersion = tracebin.ErrVersion
)

// BinarySink streams records in the binary columnar trace format
// (internal/tracebin): records buffer in memory until the session's
// interval-boundary Flush, which encodes them as column blocks —
// split per serving cell in cluster runs — and hands the underlying
// writer a single Write. After any Flush the backing store holds a
// well-formed whole-interval prefix, the same crash contract as
// NDJSON and CSV; a run that ends before its first interval leaves a
// valid header-only file.
//
// Call Close when the run is over to write the header if nothing ever
// flushed. Decode with ReadTraceRecords or ReadTraceFile.
type BinarySink struct {
	w    *tracebin.Writer
	recs []TraceRecord
}

// BinarySinkOption tunes a BinarySink.
type BinarySinkOption func(*tracebin.WriterOptions)

// WithBinaryCompression enables per-block DEFLATE; each block keeps
// whichever of raw/compressed is smaller.
func WithBinaryCompression() BinarySinkOption {
	return func(o *tracebin.WriterOptions) { o.Compress = true }
}

// NewBinarySink returns a binary columnar sink over w.
func NewBinarySink(w io.Writer, opts ...BinarySinkOption) (*BinarySink, error) {
	var o tracebin.WriterOptions
	for _, opt := range opts {
		opt(&o)
	}
	bw, err := tracebin.NewWriter(w, o)
	if err != nil {
		return nil, err
	}
	return &BinarySink{w: bw}, nil
}

// WriteRecord implements TraceSink, buffering the record until the
// next Flush.
func (s *BinarySink) WriteRecord(r TraceRecord) error {
	s.recs = append(s.recs, r)
	return nil
}

// Flush implements TraceSink: the buffered interval is encoded and
// written in one underlying Write. The writer latches its first
// error, so after a failure every later Flush returns that error and
// writes nothing.
func (s *BinarySink) Flush() error {
	if err := s.w.Flush(s.recs); err != nil {
		return err
	}
	s.recs = s.recs[:0]
	return nil
}

// Close writes the stream header if nothing ever flushed, so even an
// empty run leaves a valid file.
// The underlying writer is not closed.
func (s *BinarySink) Close() error { return s.w.Close() }
