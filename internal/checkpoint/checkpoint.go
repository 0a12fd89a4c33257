// Package checkpoint implements the versioned binary container the
// session layer uses to persist engine state at interval boundaries.
//
// A checkpoint is a header — magic, format version, engine kind, and
// a fingerprint of the producing configuration — followed by named
// sections, each length-prefixed and protected by a CRC32 of its
// payload, and closed by an empty "end" section so truncation after
// the last real section is still detected. Section payloads are
// binary throughout (fixed-width little-endian words and
// length-prefixed runs of them). v1 carried a JSON blob per user twin;
// v2 counted the draws of the generator a monolithic engine shared
// between its catalog and its builder, a stream v3 engines no longer
// have; v3 a cluster failure-policy byte and a forecast per group; v4
// an AR(1) fading tap in every user's link. All are refused. Readers
// are strict: any framing damage, CRC mismatch, or over-long length
// surfaces as ErrCorrupt (never a panic, and never an allocation ahead
// of the bytes that justify it), a format version the reader does not
// speak surfaces as ErrVersion, and a header whose engine kind or
// config fingerprint disagrees with the resuming session surfaces as
// ErrConfigMismatch. The writer refuses
// with ErrTooLarge what the reader would refuse to read.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// Version is the checkpoint format version this package writes and
// the only one it reads.
const Version uint16 = 5

// magic opens every checkpoint stream.
var magic = [8]byte{'D', 'T', 'C', 'K', 'P', 'T', '0', '\n'}

var (
	// ErrCorrupt marks a checkpoint whose framing, lengths, or
	// section checksums do not hold together.
	ErrCorrupt = errors.New("checkpoint corrupt")
	// ErrVersion marks a checkpoint written by a format version this
	// reader does not understand.
	ErrVersion = errors.New("checkpoint version unsupported")
	// ErrConfigMismatch marks a structurally valid checkpoint that
	// belongs to a different engine kind or configuration than the
	// session trying to resume from it.
	ErrConfigMismatch = errors.New("checkpoint config mismatch")
	// ErrTooLarge marks a write whose section payload, or one
	// length-prefixed value in it, exceeds what a reader accepts.
	ErrTooLarge = errors.New("checkpoint section too large")
)

// maxSection bounds a section payload in bytes: the reader treats a
// larger claim as corruption and the writer refuses to emit one. A
// variable only so tests can lower it.
var maxSection = 1 << 30

// maxName bounds a section name.
const maxName = 64

// Fingerprint hashes an arbitrary configuration value (via its
// canonical JSON encoding) to the 64-bit FNV-1a digest stored in the
// header. Callers should pass the fully defaulted configuration so
// explicit and implied defaults fingerprint identically.
func Fingerprint(cfg any) (uint64, error) {
	b, err := json.Marshal(cfg)
	if err != nil {
		return 0, fmt.Errorf("checkpoint fingerprint: %w", err)
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64(), nil
}

// Enc accumulates one section's payload. The zero value is ready to
// use; Writer.Section hands a reset Enc to its fill callback.
type Enc struct {
	buf []byte
	err error
}

// Reset empties the buffer, keeping capacity, and clears Err.
func (e *Enc) Reset() { e.buf, e.err = e.buf[:0], nil }

// Reuse is Reset onto b: the encoder appends from b[:0], overwriting
// b's bytes, so an encoding its owner is done with is written again
// rather than a new one grown. The caller gives b up to the encoder.
func (e *Enc) Reuse(b []byte) { e.buf, e.err = b[:0], nil }

// Bytes returns the accumulated payload.
func (e *Enc) Bytes() []byte { return e.buf }

// Err reports ErrTooLarge once a length-prefixed value was too long
// for its prefix to be read back; that value was not appended.
func (e *Enc) Err() error { return e.err }

// count appends the u32 length prefix for n elements of elemSize
// bytes and reserves room for them, or latches ErrTooLarge when they
// could not fit a section (which also keeps the prefix from wrapping).
func (e *Enc) count(n, elemSize int) bool {
	if n > maxSection/elemSize {
		if e.err == nil {
			e.err = fmt.Errorf("%d elements of %d bytes: %w", n, elemSize, ErrTooLarge)
		}
		return false
	}
	e.buf = slices.Grow(e.buf, 4+n*elemSize)
	e.U32(uint32(n))
	return true
}

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.buf = append(e.buf, v) }

// U16 appends a little-endian uint16.
func (e *Enc) U16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a two's-complement int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as I64.
func (e *Enc) Int(v int) { e.I64(int64(v)) }

// F64 appends the IEEE-754 bits of v.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a 0/1 byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Grow reserves room for n more bytes, so an encoding whose size is
// known up front is built in one allocation.
func (e *Enc) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// Write appends p verbatim, so an Enc can be the destination of a
// Writer: a checkpoint carried inside a larger payload is encoded in
// place rather than built apart and copied in.
func (e *Enc) Write(p []byte) (int, error) {
	e.buf = append(e.buf, p...)
	return len(p), nil
}

// Blob appends a length-prefixed byte slice.
func (e *Enc) Blob(b []byte) {
	if e.count(len(b), 1) {
		e.buf = append(e.buf, b...)
	}
}

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	if e.count(len(s), 1) {
		e.buf = append(e.buf, s...)
	}
}

// F64s appends the concatenation of runs as one length-prefixed
// float64 slice (raw IEEE-754 words), so a ring buffer encodes as its
// two contiguous halves without being copied into order first.
func (e *Enc) F64s(runs ...[]float64) {
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	if !e.count(n, 8) {
		return
	}
	off := len(e.buf)
	e.buf = e.buf[:off+8*n]
	for _, r := range runs {
		for _, x := range r {
			binary.LittleEndian.PutUint64(e.buf[off:], math.Float64bits(x))
			off += 8
		}
	}
}

// Ints appends a length-prefixed int slice.
func (e *Enc) Ints(v []int) {
	if !e.count(len(v), 8) {
		return
	}
	for _, x := range v {
		e.Int(x)
	}
}

// Dec consumes one section's payload with bounds-checked, error-
// latching reads: after the first malformed read every subsequent
// read returns a zero value and Err reports ErrCorrupt, so decode
// sequences never need per-read error checks and never panic or
// over-allocate on adversarial input.
type Dec struct {
	data []byte
	pos  int
	err  error
}

// NewDec returns a decoder over a raw payload (tests and nested
// decoders; Reader.Section hands out CRC-verified ones).
func NewDec(data []byte) *Dec { return &Dec{data: data} }

// Err reports the latched decode error, if any.
func (d *Dec) Err() error { return d.err }

// Close verifies the payload was consumed exactly.
func (d *Dec) Close() error {
	if d.err == nil && d.pos != len(d.data) {
		d.err = fmt.Errorf("%d trailing bytes: %w", len(d.data)-d.pos, ErrCorrupt)
	}
	return d.err
}

func (d *Dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%s at offset %d: %w", what, d.pos, ErrCorrupt)
	}
}

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.data)-d.pos {
		d.fail("short payload")
		return nil
	}
	b := d.data[d.pos : d.pos+n]
	d.pos += n
	return b
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (d *Dec) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a two's-complement int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Int reads an I64 and verifies it fits the platform int.
func (d *Dec) Int() int {
	v := d.I64()
	if int64(int(v)) != v {
		d.fail("int overflow")
		return 0
	}
	return int(v)
}

// F64 reads IEEE-754 bits.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a 0/1 byte; anything else is corruption.
func (d *Dec) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bad bool")
		return false
	}
}

// len reads a u32 length prefix for elements of elemSize bytes and
// verifies the claimed payload fits in the remaining bytes.
func (d *Dec) len(elemSize int) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if int64(n)*int64(elemSize) > int64(len(d.data)-d.pos) {
		d.fail("length overruns payload")
		return 0
	}
	return int(n)
}

// Blob reads a length-prefixed byte slice (aliasing the payload).
func (d *Dec) Blob() []byte { return d.take(d.len(1)) }

// String reads a length-prefixed string.
func (d *Dec) String() string { return string(d.take(d.len(1))) }

// F64s reads a length-prefixed float64 slice; nil when empty.
func (d *Dec) F64s() []float64 {
	n := d.len(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}

// F64sInto reads a length-prefixed float64 slice into the front of
// dst and returns its length; a slice longer than dst is corruption,
// so the caller's capacity, never the input, bounds the read.
func (d *Dec) F64sInto(dst []float64) int {
	n := d.len(8)
	if n > len(dst) {
		d.fail(fmt.Sprintf("%d floats into room for %d", n, len(dst)))
		return 0
	}
	b := d.take(8 * n) // len has shown the bytes are there
	for i := range dst[:n] {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return n
}

// Ints reads a length-prefixed int slice; nil when empty.
func (d *Dec) Ints() []int {
	n := d.len(8)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.Int()
	}
	return out
}

// Writer emits a checkpoint stream: header at construction, then one
// framed section per Section call, then the end marker at Finish.
// Errors latch — after a write error every call is a no-op and
// Finish reports the first failure.
type Writer struct {
	w   io.Writer
	enc Enc
	err error
}

// NewWriter writes the header for the given engine kind and config
// fingerprint and returns the section writer.
func NewWriter(w io.Writer, kind string, fingerprint uint64) *Writer {
	cw := new(Writer)
	cw.Reset(w, kind, fingerprint)
	return cw
}

// Reset starts a new checkpoint stream on dst, as NewWriter does,
// clearing a latched error but keeping the section buffer the writer
// has already grown. A session that resets one Writer per checkpoint
// encodes into memory it owns; a fresh Writer grows a buffer to the
// size of the whole state on every call, and that allocation costs
// more than the encoding (and varies from call to call).
func (w *Writer) Reset(dst io.Writer, kind string, fingerprint uint64) {
	w.w, w.err = dst, nil
	var hdr Enc
	hdr.buf = append(hdr.buf, magic[:]...)
	hdr.U16(Version)
	hdr.String(kind)
	hdr.U64(fingerprint)
	w.write(hdr.Bytes())
}

// NewSectionWriter returns a Writer without a header that frames
// sections straight into dst, after the bytes dst already holds, as
// Section does whenever its destination is an *Enc. Its sections are
// a fragment of some stream: a caller encodes a part of the state
// apart — concurrently with the other parts, into a buffer it keeps —
// and hands dst's bytes to the stream's Writer through WriteSections.
// Finish would append an end marker to the fragment; do not call it.
func NewSectionWriter(dst *Enc) *Writer { return &Writer{w: dst} }

func (w *Writer) write(b []byte) {
	if w.err != nil {
		return
	}
	if _, err := w.w.Write(b); err != nil {
		w.err = fmt.Errorf("checkpoint write: %w", err)
	}
}

// Section frames one named payload: fill appends it to the encoder it
// receives (and only appends), and the bytes are written with a length
// prefix and a CRC32 trailer. The section is built in the writer's
// section buffer and written in one piece — or, when the destination is
// itself an *Enc, built straight into the destination, so a checkpoint
// encoded into a larger payload is never copied. A payload the reader
// would refuse — longer than maxSection, or holding a value whose
// length prefix overflowed — writes nothing and latches ErrTooLarge.
func (w *Writer) Section(name string, fill func(*Enc)) error {
	if w.err != nil {
		return w.err
	}
	dst, direct := w.w.(*Enc)
	if !direct {
		dst = &w.enc
		dst.Reset()
	}
	start, prior := len(dst.buf), dst.err
	dst.String(name)
	at := len(dst.buf)
	dst.U32(0) // payload length, patched below
	dst.err = nil
	fill(dst)
	payload := dst.buf[at+4:]
	err := dst.err
	if err == nil && len(payload) > maxSection {
		err = fmt.Errorf("%d bytes: %w", len(payload), ErrTooLarge)
	}
	dst.err = prior
	if err != nil {
		dst.buf = dst.buf[:start]
		w.err = fmt.Errorf("checkpoint section %q: %w", name, err)
		return w.err
	}
	binary.LittleEndian.PutUint32(dst.buf[at:], uint32(len(payload)))
	dst.U32(crc32.ChecksumIEEE(payload))
	if !direct {
		w.write(dst.Bytes())
	}
	return w.err
}

// BlobSection writes a section whose payload is one length-prefixed
// blob, the concatenation of parts — the bytes Section(name, func(e
// *Enc) { e.Blob(bytes.Join(parts, nil)) }) writes — without copying
// the parts into the section buffer first: the CRC runs over the
// prefix and then each part. A destination that can Grow (an *Enc, a
// *bytes.Buffer) is grown once for the whole section first, so that
// writing it part by part grows it as writing it whole would.
func (w *Writer) BlobSection(name string, parts ...[]byte) error {
	if w.err != nil {
		return w.err
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n > maxSection-4 {
		w.err = fmt.Errorf("checkpoint section %q: %d bytes: %w", name, 4+n, ErrTooLarge)
		return w.err
	}
	var frame Enc
	frame.String(name)
	frame.U32(uint32(4 + n))
	frame.U32(uint32(n))
	if g, ok := w.w.(interface{ Grow(int) }); ok {
		g.Grow(len(frame.buf) + n + 4)
	}
	sum := crc32.ChecksumIEEE(frame.buf[len(frame.buf)-4:])
	w.write(frame.Bytes())
	for _, p := range parts {
		sum = crc32.Update(sum, crc32.IEEETable, p)
		w.write(p)
	}
	frame.Reset()
	frame.U32(sum)
	w.write(frame.Bytes())
	return w.err
}

// InPlace returns the writer's destination when it builds its sections
// straight into it, an *Enc, and nil when it builds them in its own
// section buffer. A caller that can judge the size of what it is about
// to write may Grow the destination once rather than let it regrow.
func (w *Writer) InPlace() *Enc {
	e, _ := w.w.(*Enc)
	return e
}

// WriteSections writes sections a NewSectionWriter already framed,
// verbatim, and latches a write error as every other call does.
func (w *Writer) WriteSections(framed []byte) error {
	w.write(framed)
	return w.err
}

// Finish writes the end marker, lets go of the destination (a writer
// kept for Reset must not pin it) and returns the first write error.
func (w *Writer) Finish() error {
	w.Section("end", func(*Enc) {})
	w.w = io.Discard
	return w.err
}

// Reader consumes a checkpoint stream written by Writer.
type Reader struct {
	r   io.Reader
	buf []byte
}

// NewReader validates the stream header against the expected engine
// kind and config fingerprint.
func NewReader(r io.Reader, kind string, fingerprint uint64) (*Reader, error) {
	cr := &Reader{r: r}
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("checkpoint header: %w", ErrCorrupt)
	}
	if hdr != magic {
		return nil, fmt.Errorf("checkpoint magic: %w", ErrCorrupt)
	}
	b, err := cr.readN(2)
	if err != nil {
		return nil, err
	}
	if ver := binary.LittleEndian.Uint16(b); ver != Version {
		return nil, fmt.Errorf("checkpoint format v%d, reader speaks v%d: %w", ver, Version, ErrVersion)
	}
	gotKind, err := cr.readString(maxName)
	if err != nil {
		return nil, err
	}
	if gotKind != kind {
		return nil, fmt.Errorf("checkpoint for engine %q, session is %q: %w", gotKind, kind, ErrConfigMismatch)
	}
	if b, err = cr.readN(8); err != nil {
		return nil, err
	}
	if gotFP := binary.LittleEndian.Uint64(b); gotFP != fingerprint {
		return nil, fmt.Errorf("checkpoint config fingerprint %016x, session has %016x: %w", gotFP, fingerprint, ErrConfigMismatch)
	}
	return cr, nil
}

func (r *Reader) readN(n int) ([]byte, error) {
	if n > cap(r.buf) {
		r.buf = make([]byte, n)
	}
	b := r.buf[:n]
	if _, err := io.ReadFull(r.r, b); err != nil {
		return nil, fmt.Errorf("checkpoint truncated: %w", ErrCorrupt)
	}
	return b, nil
}

func (r *Reader) readU32() (uint32, error) {
	b, err := r.readN(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *Reader) readString(maxLen int) (string, error) {
	n, err := r.readU32()
	if err != nil {
		return "", err
	}
	if int(n) > maxLen {
		return "", fmt.Errorf("checkpoint string length %d: %w", n, ErrCorrupt)
	}
	b, err := r.readN(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Section reads the next frame, verifies its name and CRC, and
// returns a decoder over the payload.
func (r *Reader) Section(name string) (*Dec, error) {
	gotName, err := r.readString(maxName)
	if err != nil {
		return nil, err
	}
	if gotName != name {
		return nil, fmt.Errorf("checkpoint section %q, want %q: %w", gotName, name, ErrCorrupt)
	}
	n, err := r.readU32()
	if err != nil {
		return nil, err
	}
	if int64(n) > int64(maxSection) {
		return nil, fmt.Errorf("checkpoint section %q length %d: %w", name, n, ErrCorrupt)
	}
	// Grow the payload as bytes arrive, doubling up to the claimed
	// length: a short stream whose prefix claims a gigabyte must not
	// allocate the claim.
	payload := make([]byte, 0, min(int(n), 1<<20))
	for len(payload) < int(n) {
		if len(payload) == cap(payload) {
			payload = slices.Grow(payload, min(int(n)-len(payload), len(payload)))
		}
		chunk := payload[len(payload):min(cap(payload), int(n))]
		if _, err := io.ReadFull(r.r, chunk); err != nil {
			return nil, fmt.Errorf("checkpoint section %q truncated: %w", name, ErrCorrupt)
		}
		payload = payload[:len(payload)+len(chunk)]
	}
	sum, err := r.readU32()
	if err != nil {
		return nil, err
	}
	if sum != crc32.ChecksumIEEE(payload) {
		return nil, fmt.Errorf("checkpoint section %q checksum: %w", name, ErrCorrupt)
	}
	return NewDec(payload), nil
}

// Finish consumes the end marker.
func (r *Reader) Finish() error {
	d, err := r.Section("end")
	if err != nil {
		return err
	}
	return d.Close()
}

// WriteFile writes a checkpoint atomically: the write callback runs
// against a buffered temp file in the target's directory, which is
// synced and renamed over path only after the callback and flush
// succeed — a crash mid-write never clobbers an existing checkpoint.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint temp file: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriter(f)
	if err = write(bw); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return fmt.Errorf("checkpoint flush: %w", err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("checkpoint sync: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("checkpoint close: %w", err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("checkpoint rename: %w", err)
	}
	return nil
}
