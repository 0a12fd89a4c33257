package tracebin

import (
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// WriterOptions tune a Writer. The zero value is ready to use.
type WriterOptions struct {
	// Compress runs each block body through DEFLATE (BestSpeed) and
	// keeps whichever of raw/compressed is smaller.
	Compress bool
}

// Writer encodes records into the binary columnar trace format. One
// Flush call encodes any number of records as whole blocks — split at
// serving-cell run boundaries so cluster traces get per-cell blocks —
// and hands the underlying writer a single Write, so every successful
// Flush leaves a readable prefix and a failed one appends nothing
// that a flush-per-interval caller would mistake for a torn interval.
// Writer is not safe for concurrent use.
type Writer struct {
	w    io.Writer
	opts WriterOptions

	headerDone bool
	err        error

	out   []byte      // assembled header+blocks for the current Flush
	spans []blockSpan // block boundaries of the current Flush
	enc   encState    // encode scratch, reused across Flushes
}

type blockSpan struct{ lo, hi int }

// encState is the Writer's reusable encode scratch.
type encState struct {
	body []byte
	fw   *flate.Writer
}

// NewWriter returns a Writer emitting to w. The header is written by
// the first Flush (or by Close, so even an empty run yields a valid,
// self-describing file). Every WriterOptions value is valid, so the
// error is always nil.
func NewWriter(w io.Writer, opts WriterOptions) (*Writer, error) {
	return &Writer{w: w, opts: opts}, nil
}

// appendSpans splits recs into block spans: closed at the block-size
// cap, and at serving-cell changes once the pending block has reached
// the merge minimum (so cluster traces get per-cell blocks without
// fine-grained cell interleavings degenerating into tiny blocks).
func appendSpans(spans []blockSpan, recs []Record, maxN, minN int) []blockSpan {
	lo := 0
	for i := 1; i <= len(recs); i++ {
		if i == len(recs) || i-lo >= maxN || (recs[i].BS != recs[i-1].BS && i-lo >= minN) {
			spans = append(spans, blockSpan{lo, i})
			lo = i
		}
	}
	return spans
}

// Flush encodes recs as whole blocks and writes them — plus the
// stream header, the first time — to the underlying writer in a
// single Write call. recs may be empty (a no-op after the header
// exists). Any error latches the Writer broken; an error from the
// underlying writer is returned as-is so callers can inspect it.
func (bw *Writer) Flush(recs []Record) error {
	if bw.err != nil {
		return bw.err
	}
	bw.out = bw.out[:0]
	if !bw.headerDone {
		bw.out = appendHeader(bw.out)
	}
	if len(recs) > 0 {
		bw.spans = appendSpans(bw.spans[:0], recs, blockRecords, minBlockRecords)
		for _, sp := range bw.spans {
			if err := bw.appendBlock(recs[sp.lo:sp.hi]); err != nil {
				bw.err = err
				return err
			}
		}
	}
	if len(bw.out) == 0 {
		return nil
	}
	if _, err := bw.w.Write(bw.out); err != nil {
		// The error latches the Writer, so no later Flush writes;
		// headerDone only ever records a header the writer accepted.
		bw.err = err
		return err
	}
	bw.headerDone = true
	return nil
}

// appendBlock appends one block to bw.out: the frame length, the
// frame, and the frame's CRC.
func (bw *Writer) appendBlock(recs []Record) error {
	at := len(bw.out)
	bw.out = le32(bw.out, 0) // frame length, patched below
	var err error
	if bw.out, err = appendFrame(bw.out, recs, bw.opts.Compress, &bw.enc); err != nil {
		return err
	}
	frame := bw.out[at+4:]
	binary.LittleEndian.PutUint32(bw.out[at:], uint32(len(frame)))
	bw.out = le32(bw.out, crc32.ChecksumIEEE(frame))
	return nil
}

// appendFrame appends one block's frame to dst: the frame flag byte,
// then the raw or DEFLATE-compressed body — whichever is smaller.
func appendFrame(dst []byte, recs []Record, compress bool, st *encState) ([]byte, error) {
	start := len(dst)
	if !compress {
		dst = append(dst, frameRaw)
		return appendBlockBody(dst, recs)
	}
	var err error
	if st.body, err = appendBlockBody(st.body[:0], recs); err != nil {
		return dst, err
	}
	dst = append(dst, frameDeflate)
	sw := sliceWriter{buf: dst}
	if st.fw == nil {
		// BestSpeed: the block body is mostly low-entropy fixed-width
		// numerics; deeper matching buys little and costs encode time.
		st.fw, _ = flate.NewWriter(&sw, flate.BestSpeed)
	} else {
		st.fw.Reset(&sw)
	}
	if _, err := st.fw.Write(st.body); err != nil {
		return dst, fmt.Errorf("tracebin: compress block: %w", err)
	}
	if err := st.fw.Close(); err != nil {
		return dst, fmt.Errorf("tracebin: compress block: %w", err)
	}
	dst = sw.buf
	if len(dst)-start >= 1+len(st.body) {
		// Incompressible block: keep the raw body.
		dst = append(dst[:start], frameRaw)
		dst = append(dst, st.body...)
	}
	return dst, nil
}

// sliceWriter appends into a byte slice, letting flate stream into a
// reusable buffer.
type sliceWriter struct{ buf []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	return len(p), nil
}

// Close writes the header if no Flush has (so an empty run still
// yields a valid file). A Writer already broken by a Flush failure
// returns nil — the error was reported when it happened, and Close
// must not touch the torn stream again. The underlying writer is not
// closed.
func (bw *Writer) Close() error {
	if bw.err != nil {
		return nil
	}
	if !bw.headerDone {
		if _, err := bw.w.Write(appendHeader(nil)); err != nil {
			bw.err = err
			return err
		}
		bw.headerDone = true
	}
	return nil
}
