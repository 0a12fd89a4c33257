package tracebin

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Reader decodes the records of a binary columnar trace. NewReader (or
// Reset, for the next stream) validates the header; AppendAll then
// decodes every block, each straight into the caller's slice. A clean
// EOF at a block boundary ends the stream — that is the valid shape of
// a trace cut off mid-run. Anything else malformed surfaces as
// ErrCorrupt (or ErrVersion for an unknown format version), never a
// panic.
type Reader struct {
	r   *bufio.Reader
	err error

	own   *bufio.Reader // the buffered reader NewReader or Reset made, kept for the next Reset
	names []byte        // the stream's column names, back to back
	ends  []int         // ends[i] is the end of name i in names
	frame []byte        // reused frame buffer
	body  []byte        // reused decompressed-body buffer
	fr    io.ReadCloser
	lenb  [4]byte
	head  [maxName]byte // the header's fixed fields, then each name as it is read
}

// NewReader parses and validates the stream header of r. If r is
// already a *bufio.Reader it is used directly, so callers may peek at
// the magic bytes for format detection and hand over the same reader.
func NewReader(r io.Reader) (*Reader, error) {
	tr := &Reader{}
	if err := tr.Reset(r); err != nil {
		return nil, err
	}
	return tr, nil
}

// Reset makes the Reader read the stream r from its start, parsing and
// validating its header as NewReader does, and keeps every buffer the
// Reader has grown — its buffered reader (unless r is a *bufio.Reader,
// which is used directly), the name table, frame and body buffers — so
// a caller decoding one stream after another allocates only for
// the first, or for a larger one. The zero Reader is ready for Reset.
func (tr *Reader) Reset(r io.Reader) error {
	br, ok := r.(*bufio.Reader)
	if !ok {
		if tr.own == nil {
			tr.own = bufio.NewReader(r)
		} else {
			tr.own.Reset(r)
		}
		br = tr.own
	}
	tr.r = br
	tr.err = tr.readHeader()
	return tr.err
}

func (tr *Reader) readHeader() error {
	head := tr.head[:11] // magic + version + flags
	if _, err := io.ReadFull(tr.r, head); err != nil {
		return fmt.Errorf("stream header: %w", corruptEOF(err))
	}
	if !bytes.Equal(head[:8], magic[:]) {
		return fmt.Errorf("bad magic: %w", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(head[8:10]); v != Version {
		return fmt.Errorf("version %d (have %d): %w", v, Version, ErrVersion)
	}
	// head[10] is the reserved flags byte; nonzero values are from a
	// future writer we do not understand.
	if head[10] != 0 {
		return fmt.Errorf("flags %#x: %w", head[10], ErrVersion)
	}
	if err := tr.readStringTable(); err != nil {
		return err
	}
	return tr.readSchema()
}

// readStringTable reads the column names into tr.names and tr.ends.
func (tr *Reader) readStringTable() error {
	n, err := tr.readU16()
	if err != nil {
		return fmt.Errorf("string table: %w", err)
	}
	if int(n) != len(columns) {
		return fmt.Errorf("string table size %d (want %d): %w", n, len(columns), ErrCorrupt)
	}
	tr.names, tr.ends = tr.names[:0], tr.ends[:0]
	for i := 0; i < int(n); i++ {
		l, err := tr.readU16()
		if err != nil {
			return fmt.Errorf("string table entry %d: %w", i, err)
		}
		if l == 0 || int(l) > maxName {
			return fmt.Errorf("string table entry %d length %d: %w", i, l, ErrCorrupt)
		}
		if _, err := io.ReadFull(tr.r, tr.head[:l]); err != nil {
			return fmt.Errorf("string table entry %d: %w", i, corruptEOF(err))
		}
		tr.names = append(tr.names, tr.head[:l]...)
		tr.ends = append(tr.ends, len(tr.names))
	}
	return nil
}

// name returns name i of the string table readStringTable read.
func (tr *Reader) name(i int) []byte {
	start := 0
	if i > 0 {
		start = tr.ends[i-1]
	}
	return tr.names[start:tr.ends[i]]
}

func (tr *Reader) readSchema() error {
	n, err := tr.readU16()
	if err != nil {
		return fmt.Errorf("schema: %w", err)
	}
	if int(n) != len(columns) {
		return fmt.Errorf("schema size %d (want %d): %w", n, len(columns), ErrCorrupt)
	}
	for i := range columns {
		idx, err := tr.readU16()
		if err != nil {
			return fmt.Errorf("schema entry %d: %w", i, err)
		}
		kind, err := tr.r.ReadByte()
		if err != nil {
			return fmt.Errorf("schema entry %d: %w", i, corruptEOF(err))
		}
		if int(idx) >= len(tr.ends) || string(tr.name(int(idx))) != columns[i].name || kind != columns[i].kind {
			return fmt.Errorf("schema entry %d is not column %q: %w", i, columns[i].name, ErrCorrupt)
		}
	}
	return nil
}

func (tr *Reader) readU16() (uint16, error) {
	if _, err := io.ReadFull(tr.r, tr.lenb[:2]); err != nil {
		return 0, corruptEOF(err)
	}
	return binary.LittleEndian.Uint16(tr.lenb[:2]), nil
}

// corruptEOF maps a short read to ErrCorrupt: inside any structure,
// running out of bytes is damage, not a clean end of stream.
func corruptEOF(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("unexpected end of stream: %w", ErrCorrupt)
	}
	return err
}

// readFrame reads and verifies the next block frame and returns its
// body, inflated when it is compressed: a window of the reused frame
// or body buffer, valid until the next frame is read.
func (tr *Reader) readFrame() ([]byte, error) {
	if _, err := io.ReadFull(tr.r, tr.lenb[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF // clean boundary: a valid truncated trace
		}
		return nil, fmt.Errorf("block frame length: %w", corruptEOF(err))
	}
	n := int(binary.LittleEndian.Uint32(tr.lenb[:]))
	if n < 1 || n > maxFrame {
		return nil, fmt.Errorf("block frame length %d: %w", n, ErrCorrupt)
	}
	if cap(tr.frame) < n {
		tr.frame = make([]byte, n)
	}
	tr.frame = tr.frame[:n]
	if _, err := io.ReadFull(tr.r, tr.frame); err != nil {
		return nil, fmt.Errorf("block frame: %w", corruptEOF(err))
	}
	if _, err := io.ReadFull(tr.r, tr.lenb[:]); err != nil {
		return nil, fmt.Errorf("block checksum: %w", corruptEOF(err))
	}
	if got, want := crc32.ChecksumIEEE(tr.frame), binary.LittleEndian.Uint32(tr.lenb[:]); got != want {
		return nil, fmt.Errorf("block checksum %08x (want %08x): %w", got, want, ErrCorrupt)
	}
	body := tr.frame[1:]
	switch tr.frame[0] {
	case frameRaw:
		return body, nil
	case frameDeflate:
		return tr.inflate(body)
	default:
		return nil, fmt.Errorf("block frame flag %d: %w", tr.frame[0], ErrCorrupt)
	}
}

// AppendAll appends every record left in the stream to dst, decoding
// each block straight into dst's tail, and returns the extended slice;
// a clean end of stream is a nil error. On any other error dst keeps
// the records decoded before the failing block, and the Reader stays
// failed: a later call returns the same error.
func (tr *Reader) AppendAll(dst []Record) ([]Record, error) {
	if tr.err != nil {
		return dst, tr.err
	}
	for {
		body, err := tr.readFrame()
		if err == io.EOF {
			return dst, nil
		}
		if err == nil {
			if dst, err = decodeBlockBody(dst, body); err != nil {
				err = fmt.Errorf("block body: %w", err)
			}
		}
		if err != nil {
			tr.err = err
			return dst, err
		}
	}
}

// inflate decompresses a DEFLATE block body into the reused body
// buffer, bounding the output so a hostile stream cannot balloon.
func (tr *Reader) inflate(comp []byte) ([]byte, error) {
	src := bytes.NewReader(comp)
	if tr.fr == nil {
		tr.fr = flate.NewReader(src)
	} else if err := tr.fr.(flate.Resetter).Reset(src, nil); err != nil {
		return nil, fmt.Errorf("block inflate reset: %w", ErrCorrupt)
	}
	tr.body = tr.body[:0]
	var chunk [4096]byte
	for {
		n, err := tr.fr.Read(chunk[:])
		if len(tr.body)+n > maxBody {
			return nil, fmt.Errorf("block body over %d bytes: %w", maxBody, ErrCorrupt)
		}
		tr.body = append(tr.body, chunk[:n]...)
		if err == io.EOF {
			return tr.body, nil
		}
		if err != nil {
			return nil, fmt.Errorf("block inflate: %w", ErrCorrupt)
		}
	}
}

// ReadAll drains r into a slice. Records decoded before an error are
// returned alongside it, so a torn tail still yields its readable
// prefix.
func ReadAll(r io.Reader) ([]Record, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	return tr.AppendAll(nil)
}
