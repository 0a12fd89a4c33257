// Package tracebin defines the trace row — the per-(interval, cell,
// group) Record both engines stream through the session layer's
// sinks, and the one column table the binary and CSV schemas are read
// from — and implements the binary columnar trace format, the row's
// compact on-disk encoding.
//
// A trace file is a header — magic, format version, a string table of
// column labels, and the column schema — followed by blocks. Each
// block holds a run of records laid out column-wise: every column is
// either a fixed-width array (4-byte little-endian two's-complement
// ints, 8-byte IEEE-754 float bits) or, when every record in the
// block agrees, a single constant value — the columnar layout makes
// that elision nearly free and it is what makes the format small,
// since most trace columns (interval, cell, allocation, the idle
// demand channels) are constant within a block. Blocks are framed
// exactly like the checkpoint container's sections: a u32 length
// prefix, the payload, and a CRC32 trailer, with an optional
// per-block DEFLATE pass. There is no end marker: a trace truncated
// at any block boundary is a valid trace, which is precisely the
// whole-interval-prefix crash contract the streaming sinks guarantee
// (the writer emits whole blocks per flush, one flush per interval).
//
// Readers are strict: framing damage, checksum mismatches, over-long
// lengths and schema disagreements surface as ErrCorrupt (never a
// panic or an unbounded allocation), and a format version this
// package does not speak surfaces as ErrVersion.
package tracebin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Version is the format version this package writes and the only one
// it reads.
const Version uint16 = 1

// magic opens every binary trace stream. Distinct from the checkpoint
// container's magic so the two can never be confused.
var magic = [8]byte{'D', 'T', 'T', 'R', 'A', 'C', 'E', 'B'}

// Magic returns the 8 magic bytes that open every binary trace, for
// format auto-detection by peeking a stream's head.
func Magic() []byte { return append([]byte(nil), magic[:]...) }

var (
	// ErrCorrupt marks a binary trace whose framing, checksums or
	// schema do not hold together.
	ErrCorrupt = errors.New("binary trace corrupt")
	// ErrVersion marks a binary trace written by a format version this
	// reader does not understand.
	ErrVersion = errors.New("binary trace version unsupported")
)

const (
	// maxFrame bounds one block's on-wire payload; anything larger is
	// treated as corruption rather than allocated.
	maxFrame = 1 << 24
	// maxBody bounds one block's decompressed payload.
	maxBody = 1 << 24
	// maxBlockRecords bounds the records of one block a reader
	// accepts; a larger claimed count is corruption.
	maxBlockRecords = 1 << 16
	// blockRecords caps the records per block the writer emits.
	blockRecords = 4096
	// minBlockRecords is the smallest block a cell-run boundary may
	// close: shorter runs are merged with the next so per-cell
	// splitting cannot degenerate into per-record blocks.
	minBlockRecords = 256
	// maxName bounds a string-table entry.
	maxName = 64
)

// Block payload encodings, one byte ahead of each column's values.
const (
	encPlain    = 0 // count fixed-width values
	encConstant = 1 // one value shared by every record in the block
)

// Block frame flags, the first payload byte.
const (
	frameRaw     = 0 // payload is the block body
	frameDeflate = 1 // payload is the DEFLATE-compressed block body
)

func le16(dst []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(dst, v) }
func le32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func le64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// appendHeader emits the stream header: magic, version, a reserved
// flags byte, the string table of column labels, and the schema
// referencing them by table index.
func appendHeader(dst []byte) []byte {
	dst = append(dst, magic[:]...)
	dst = le16(dst, Version)
	dst = append(dst, 0) // flags, reserved
	dst = le16(dst, uint16(len(columns)))
	for i := range columns {
		dst = le16(dst, uint16(len(columns[i].name)))
		dst = append(dst, columns[i].name...)
	}
	dst = le16(dst, uint16(len(columns)))
	for i := range columns {
		dst = le16(dst, uint16(i))
		dst = append(dst, columns[i].kind)
	}
	return dst
}

// appendBlockBody encodes one block of records column-wise: the
// record count, then per schema column an encoding byte and either
// one constant value or count fixed-width values.
func appendBlockBody(dst []byte, recs []Record) ([]byte, error) {
	dst = le32(dst, uint32(len(recs)))
	for ci := range columns {
		c := &columns[ci]
		if c.kind == colI32 {
			v0 := *c.i(&recs[0])
			constant := true
			for i := 1; i < len(recs); i++ {
				if *c.i(&recs[i]) != v0 {
					constant = false
					break
				}
			}
			if constant {
				dst = append(dst, encConstant)
				var err error
				if dst, err = appendI32(dst, c.name, v0); err != nil {
					return dst, err
				}
				continue
			}
			dst = append(dst, encPlain)
			for i := range recs {
				var err error
				if dst, err = appendI32(dst, c.name, *c.i(&recs[i])); err != nil {
					return dst, err
				}
			}
			continue
		}
		v0 := *c.f(&recs[0])
		b0 := math.Float64bits(v0)
		constant := true
		for i := 1; i < len(recs); i++ {
			// Bitwise comparison: ±0 and NaN payloads must survive the
			// round trip exactly.
			if math.Float64bits(*c.f(&recs[i])) != b0 {
				constant = false
				break
			}
		}
		if constant {
			dst = append(dst, encConstant)
			dst = le64(dst, b0)
			continue
		}
		dst = append(dst, encPlain)
		for i := range recs {
			dst = le64(dst, math.Float64bits(*c.f(&recs[i])))
		}
	}
	return dst, nil
}

func appendI32(dst []byte, name string, v int) ([]byte, error) {
	if v < math.MinInt32 || v > math.MaxInt32 {
		return dst, fmt.Errorf("tracebin: %s value %d overflows the 32-bit wire field", name, v)
	}
	return le32(dst, uint32(int32(v))), nil
}

// cur is a bounds-checked cursor over one block's decoded body.
type cur struct {
	b   []byte
	off int
}

func (c *cur) take(n int) ([]byte, error) {
	if n < 0 || n > len(c.b)-c.off {
		return nil, fmt.Errorf("block body short at offset %d: %w", c.off, ErrCorrupt)
	}
	b := c.b[c.off : c.off+n]
	c.off += n
	return b, nil
}

// decodeBlockBody decodes one block body into dst, which is resized
// (reusing capacity) to the block's record count.
func decodeBlockBody(dst []Record, body []byte) ([]Record, error) {
	c := cur{b: body}
	nb, err := c.take(4)
	if err != nil {
		return dst, err
	}
	n := int(binary.LittleEndian.Uint32(nb))
	if n < 1 || n > maxBlockRecords {
		return dst, fmt.Errorf("block record count %d: %w", n, ErrCorrupt)
	}
	if cap(dst) < n {
		dst = make([]Record, n)
	}
	dst = dst[:n]
	for ci := range columns {
		col := &columns[ci]
		eb, err := c.take(1)
		if err != nil {
			return dst, err
		}
		width := 4
		if col.kind == colF64 {
			width = 8
		}
		count := n
		switch eb[0] {
		case encConstant:
			count = 1
		case encPlain:
		default:
			return dst, fmt.Errorf("column %s encoding %d: %w", col.name, eb[0], ErrCorrupt)
		}
		vb, err := c.take(count * width)
		if err != nil {
			return dst, err
		}
		if col.kind == colI32 {
			if count == 1 {
				v := int(int32(binary.LittleEndian.Uint32(vb)))
				for i := range dst {
					*col.i(&dst[i]) = v
				}
			} else {
				for i := range dst {
					*col.i(&dst[i]) = int(int32(binary.LittleEndian.Uint32(vb[4*i:])))
				}
			}
			continue
		}
		if count == 1 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(vb))
			for i := range dst {
				*col.f(&dst[i]) = v
			}
		} else {
			for i := range dst {
				*col.f(&dst[i]) = math.Float64frombits(binary.LittleEndian.Uint64(vb[8*i:]))
			}
		}
	}
	if c.off != len(body) {
		return dst, fmt.Errorf("%d trailing block bytes: %w", len(body)-c.off, ErrCorrupt)
	}
	return dst, nil
}
