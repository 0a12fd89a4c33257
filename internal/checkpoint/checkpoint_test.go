package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// TestEncDecRoundTrip: every primitive round-trips and Close verifies
// exact consumption.
func TestEncDecRoundTrip(t *testing.T) {
	var e Enc
	e.U8(7)
	e.U16(65000)
	e.U32(1 << 30)
	e.U64(1 << 60)
	e.I64(-42)
	e.Int(-7)
	e.F64(math.Pi)
	e.F64(math.Inf(-1))
	e.Bool(true)
	e.Bool(false)
	e.Blob([]byte("blob"))
	e.String("str")
	e.F64s([]float64{1.5, -2.5})
	e.Ints([]int{3, -4, 5})
	e.F64s(nil)
	e.Ints(nil)
	e.F64s([]float64{1, 2}, nil, []float64{3})
	e.F64s()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}

	d := NewDec(e.Bytes())
	if got := d.U8(); got != 7 {
		t.Fatalf("U8: %d", got)
	}
	if got := d.U16(); got != 65000 {
		t.Fatalf("U16: %d", got)
	}
	if got := d.U32(); got != 1<<30 {
		t.Fatalf("U32: %d", got)
	}
	if got := d.U64(); got != 1<<60 {
		t.Fatalf("U64: %d", got)
	}
	if got := d.I64(); got != -42 {
		t.Fatalf("I64: %d", got)
	}
	if got := d.Int(); got != -7 {
		t.Fatalf("Int: %d", got)
	}
	if got := d.F64(); got != math.Pi {
		t.Fatalf("F64: %v", got)
	}
	if got := d.F64(); !math.IsInf(got, -1) {
		t.Fatalf("F64 -inf: %v", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool round trip")
	}
	if got := d.Blob(); string(got) != "blob" {
		t.Fatalf("Blob: %q", got)
	}
	if got := d.String(); got != "str" {
		t.Fatalf("String: %q", got)
	}
	if got := d.F64s(); len(got) != 2 || got[0] != 1.5 || got[1] != -2.5 {
		t.Fatalf("F64s: %v", got)
	}
	if got := d.Ints(); len(got) != 3 || got[1] != -4 {
		t.Fatalf("Ints: %v", got)
	}
	if got := d.F64s(); got != nil {
		t.Fatalf("empty F64s: %v", got)
	}
	if got := d.Ints(); got != nil {
		t.Fatalf("empty Ints: %v", got)
	}
	// Runs concatenate under one prefix and decode into the front of
	// the destination, leaving the rest alone.
	dst := []float64{9, 9, 9, 9}
	if n := d.F64sInto(dst); n != 3 || !slices.Equal(dst, []float64{1, 2, 3, 9}) {
		t.Fatalf("F64sInto: %d %v", n, dst)
	}
	if n := d.F64sInto(nil); n != 0 {
		t.Fatalf("empty F64sInto: %d", n)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDecMalformed: short payloads, oversized length prefixes, bad
// bools and trailing bytes all latch ErrCorrupt; reads after the
// latch return zero values rather than panicking.
func TestDecMalformed(t *testing.T) {
	d := NewDec([]byte{1, 2})
	if d.U64(); !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatal("short U64 not corrupt")
	}
	if got := d.U32(); got != 0 {
		t.Fatalf("read after latch: %d", got)
	}

	// Length prefix claiming more elements than bytes remain.
	var e Enc
	e.U32(1 << 28)
	d = NewDec(e.Bytes())
	if d.F64s(); !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatal("oversized F64s not corrupt")
	}

	// A slice longer than the destination is refused, not truncated.
	e.Reset()
	e.F64s([]float64{1, 2, 3})
	d = NewDec(e.Bytes())
	dst := make([]float64, 2)
	if n := d.F64sInto(dst); n != 0 || !errors.Is(d.Err(), ErrCorrupt) || dst[0] != 0 {
		t.Fatalf("over-long F64sInto: n=%d err=%v dst=%v", n, d.Err(), dst)
	}

	d = NewDec([]byte{2})
	if d.Bool(); !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatal("bad bool not corrupt")
	}

	d = NewDec([]byte{0, 0})
	if err := d.Close(); !errors.Is(err, ErrCorrupt) {
		t.Fatal("trailing bytes not corrupt")
	}
}

func writeStream(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, "sim", 0xDEADBEEF)
	if err := w.Section("alpha", func(e *Enc) { e.Int(42); e.String("hello") }); err != nil {
		t.Fatal(err)
	}
	if err := w.Section("beta", func(e *Enc) { e.F64s([]float64{1, 2, 3}) }); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriterReaderRoundTrip: a two-section stream reads back exactly.
func TestWriterReaderRoundTrip(t *testing.T) {
	raw := writeStream(t)
	r, err := NewReader(bytes.NewReader(raw), "sim", 0xDEADBEEF)
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.Section("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Int(); got != 42 {
		t.Fatalf("alpha int: %d", got)
	}
	if got := d.String(); got != "hello" {
		t.Fatalf("alpha string: %q", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = r.Section("beta")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.F64s(); len(got) != 3 {
		t.Fatalf("beta floats: %v", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestWriterReset: a writer reset after a finished stream, or after a
// latched write error, produces the bytes a new writer does and grows
// no second section buffer.
func TestWriterReset(t *testing.T) {
	want := writeStream(t)
	fill := func(w *Writer) error {
		w.Section("alpha", func(e *Enc) { e.Int(42); e.String("hello") })
		w.Section("beta", func(e *Enc) { e.F64s([]float64{1, 2, 3}) })
		return w.Finish()
	}
	w := NewWriter(failingWriter{}, "cluster", 7)
	if err := fill(w); err == nil {
		t.Fatal("write error not latched")
	}
	for i := 0; i < 2; i++ {
		var buf bytes.Buffer
		w.Reset(&buf, "sim", 0xDEADBEEF)
		if err := fill(w); err != nil {
			t.Fatalf("reset %d: %v", i, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("reset %d: stream differs from a new writer's", i)
		}
	}
	big := make([]byte, 1<<16)
	w.Reset(io.Discard, "sim", 1)
	w.Section("big", func(e *Enc) { e.Blob(big) })
	grown := cap(w.enc.buf)
	w.Reset(io.Discard, "sim", 1)
	w.Section("big", func(e *Enc) { e.Blob(big) })
	if cap(w.enc.buf) != grown {
		t.Fatalf("section buffer regrown: cap %d, was %d", cap(w.enc.buf), grown)
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestReaderHeaderChecks: kind, fingerprint and version mismatches
// map to their sentinels.
func TestReaderHeaderChecks(t *testing.T) {
	raw := writeStream(t)
	if _, err := NewReader(bytes.NewReader(raw), "cluster", 0xDEADBEEF); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("kind mismatch: %v", err)
	}
	if _, err := NewReader(bytes.NewReader(raw), "sim", 1); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("fingerprint mismatch: %v", err)
	}
	mut := bytes.Clone(raw)
	mut[8]++
	if _, err := NewReader(bytes.NewReader(mut), "sim", 0xDEADBEEF); !errors.Is(err, ErrVersion) {
		t.Fatalf("version mismatch: %v", err)
	}
	mut = bytes.Clone(raw)
	mut[0] ^= 0xFF
	if _, err := NewReader(bytes.NewReader(mut), "sim", 0xDEADBEEF); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("magic mismatch: %v", err)
	}
}

// TestReaderDamage: every truncation and every single-byte flip of
// the stream body fails typed, never panics, never succeeds.
func TestReaderDamage(t *testing.T) {
	raw := writeStream(t)
	read := func(b []byte) error {
		r, err := NewReader(bytes.NewReader(b), "sim", 0xDEADBEEF)
		if err != nil {
			return err
		}
		for _, name := range []string{"alpha", "beta"} {
			d, err := r.Section(name)
			if err != nil {
				return err
			}
			switch name {
			case "alpha":
				d.Int()
				_ = d.String()
			case "beta":
				d.F64s()
			}
			if err := d.Close(); err != nil {
				return err
			}
		}
		return r.Finish()
	}
	typed := func(err error) bool {
		return errors.Is(err, ErrCorrupt) || errors.Is(err, ErrVersion) || errors.Is(err, ErrConfigMismatch)
	}
	for n := 0; n < len(raw); n++ {
		if err := read(raw[:n]); !typed(err) {
			t.Fatalf("truncation at %d: %v", n, err)
		}
	}
	for i := 0; i < len(raw); i++ {
		mut := bytes.Clone(raw)
		mut[i] ^= 0x01
		if err := read(mut); !typed(err) {
			t.Fatalf("flip at %d: %v", i, err)
		}
	}
}

// lowerMaxSection shrinks the section limit for one test.
func lowerMaxSection(t *testing.T, n int) {
	old := maxSection
	maxSection = n
	t.Cleanup(func() { maxSection = old })
}

// TestWriterRefusesOversize: a section the reader would reject — over
// the limit as a whole, or holding one value whose length prefix could
// not be read back — fails the write with ErrTooLarge, emits nothing
// for it, and latches; a section exactly at the limit round-trips.
func TestWriterRefusesOversize(t *testing.T) {
	lowerMaxSection(t, 64)
	for _, tc := range []struct {
		name string
		fill func(*Enc)
	}{
		{"payload", func(e *Enc) {
			for i := 0; i < 9; i++ {
				e.U64(uint64(i))
			}
		}},
		{"blob", func(e *Enc) { e.Blob(make([]byte, 65)) }},
		{"string", func(e *Enc) { e.String(string(make([]byte, 65))) }},
		{"floats", func(e *Enc) { e.F64s(make([]float64, 5), make([]float64, 4)) }},
		{"ints", func(e *Enc) { e.Ints(make([]int, 9)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			w := NewWriter(&buf, "sim", 1)
			header := buf.Len()
			if err := w.Section("big", tc.fill); !errors.Is(err, ErrTooLarge) {
				t.Fatalf("want ErrTooLarge, got %v", err)
			}
			if buf.Len() != header {
				t.Fatalf("refused section still wrote %d bytes", buf.Len()-header)
			}
			if err := w.Finish(); !errors.Is(err, ErrTooLarge) {
				t.Fatalf("Finish after refusal: %v", err)
			}
		})
	}

	var e Enc
	e.Blob(make([]byte, 65))
	if !errors.Is(e.Err(), ErrTooLarge) || len(e.Bytes()) != 0 {
		t.Fatalf("oversized Blob: err=%v, %d bytes appended", e.Err(), len(e.Bytes()))
	}
	if e.Reset(); e.Err() != nil {
		t.Fatal("Reset kept the error")
	}

	var buf bytes.Buffer
	w := NewWriter(&buf, "sim", 1)
	if err := w.Section("full", func(e *Enc) { e.Blob(make([]byte, 60)) }); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf, "sim", 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.Section("full")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Blob(); len(got) != 60 || d.Close() != nil {
		t.Fatalf("section at the limit: %d bytes, %v", len(got), d.Err())
	}
}

// TestReaderSectionGrowsWithInput: a section larger than the first
// read chunk round-trips through the grow-as-bytes-arrive loop, and a
// short stream claiming the maximum length fails typed having
// allocated for the bytes that arrived, not for the claim.
func TestReaderSectionGrowsWithInput(t *testing.T) {
	want := make([]byte, 5<<20+123)
	for i := range want {
		want[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, "sim", 1)
	if err := w.Section("big", func(e *Enc) { e.Blob(want) }); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), "sim", 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.Section("big")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Blob(); !bytes.Equal(got, want) || d.Close() != nil {
		t.Fatalf("large section did not round-trip: %v", d.Err())
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}

	var hdr Enc
	hdr.String("huge")
	hdr.U32(uint32(maxSection))
	hdr.U64(0) // all that arrives of the claimed gigabyte
	stream := func() io.Reader {
		var b bytes.Buffer
		NewWriter(&b, "sim", 1)
		b.Write(hdr.Bytes())
		return &b
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err = NewReader(stream(), "sim", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Section("huge"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated huge claim: %v", err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Fatalf("%d-byte section claiming %d allocated %d bytes", len(hdr.Bytes()), maxSection, got)
	}

	// One past the limit is refused before any read.
	binary.LittleEndian.PutUint32(hdr.buf[8:], uint32(maxSection)+1)
	if r, err = NewReader(stream(), "sim", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Section("huge"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("over-limit claim: %v", err)
	}
}

// TestFingerprintStability: equal configs agree, different configs
// disagree.
func TestFingerprintStability(t *testing.T) {
	type cfg struct {
		Seed int64
		N    int
	}
	a, err := Fingerprint(cfg{Seed: 1, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fingerprint(cfg{Seed: 1, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Fingerprint(cfg{Seed: 2, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("equal configs fingerprint differently")
	}
	if a == c {
		t.Fatal("different configs fingerprint equal")
	}
}

// TestWriteFileAtomic: a failing write callback leaves neither the
// target nor temp litter behind; a successful one installs the bytes.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")

	boom := errors.New("boom")
	if err := WriteFile(path, func(w io.Writer) error { return boom }); err == nil {
		t.Fatal("failing callback reported success")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("failed WriteFile left the target behind")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("failed WriteFile left temp litter: %v", ents)
	}

	if err := WriteFile(path, func(w io.Writer) error {
		_, werr := w.Write([]byte("payload"))
		return werr
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "payload" {
		t.Fatalf("WriteFile content: %q", got)
	}
}

// TestWriterIntoEnc: a checkpoint written into an *Enc — sections
// encoded in place after whatever the encoder already holds — is the
// same stream as one written through the section buffer, BlobSection
// writes the bytes of a Section holding one Blob whether it gets the
// blob whole or in parts, and a refused section is cut back off the
// encoder, which keeps its own latched state. A *bytes.Buffer written
// a blob in parts grows as one written the blob whole.
func TestWriterIntoEnc(t *testing.T) {
	blob := bytes.Repeat([]byte{0xA5, 0x5A, 7}, 100)
	// parts = 0 writes the blob through Section, else through
	// BlobSection in that many parts.
	write := func(dst io.Writer, parts int) {
		w := NewWriter(dst, "dtworker", 9)
		if err := w.Section("counts", func(e *Enc) { e.Int(3); e.F64s([]float64{1.5, -2}) }); err != nil {
			t.Fatal(err)
		}
		var err error
		switch parts {
		case 0:
			err = w.Section("blob", func(e *Enc) { e.Blob(blob) })
		case 1:
			err = w.BlobSection("blob", blob)
		default:
			err = w.BlobSection("blob", blob[:7], nil, blob[7:100], blob[100:])
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	var want bytes.Buffer
	write(&want, 0)
	caps := map[int]int{}
	for _, parts := range []int{0, 1, 4} {
		var buf bytes.Buffer
		write(&buf, parts)
		caps[parts] = buf.Cap()
		var e Enc
		e.U32(0xDEADBEEF) // a frame header the checkpoint rides behind
		write(&e, parts)
		if !bytes.Equal(buf.Bytes(), want.Bytes()) || !bytes.Equal(e.Bytes()[4:], want.Bytes()) {
			t.Fatalf("blob in %d parts: the stream differs from Section through the section buffer", parts)
		}
	}
	if caps[4] != caps[1] {
		t.Fatalf("a bytes.Buffer grew to %d bytes for a blob in parts, %d for it whole", caps[4], caps[1])
	}

	lowerMaxSection(t, 64)
	var e Enc
	e.U8(1)
	w := NewWriter(&e, "sim", 1)
	held := len(e.Bytes())
	if err := w.Section("big", func(e *Enc) { e.Blob(make([]byte, 65)) }); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
	if len(e.Bytes()) != held || e.Err() != nil {
		t.Fatalf("refused in-place section left %d bytes (had %d), err %v", len(e.Bytes()), held, e.Err())
	}
	w = NewWriter(io.Discard, "sim", 1)
	if err := w.BlobSection("full", make([]byte, 60)); err != nil {
		t.Fatalf("blob section at the limit: %v", err)
	}
	if err := w.BlobSection("big", make([]byte, 61)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("blob section over the limit: %v", err)
	}
	w = NewWriter(io.Discard, "sim", 1)
	if err := w.BlobSection("big", make([]byte, 30), make([]byte, 31)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("blob section over the limit in parts: %v", err)
	}
}

// TestSectionWriterFragments: sections framed apart, each part by a
// NewSectionWriter into its own encoder, then written in order with
// WriteSections, make the stream one Writer writes directly; a
// fragment carries no header and no end marker, a section writer
// builds in place, and WriteSections latches a write error as Section
// does.
func TestSectionWriterFragments(t *testing.T) {
	want := writeStream(t)
	var alpha, beta Enc
	if err := NewSectionWriter(&alpha).Section("alpha", func(e *Enc) { e.Int(42); e.String("hello") }); err != nil {
		t.Fatal(err)
	}
	if err := NewSectionWriter(&beta).Section("beta", func(e *Enc) { e.F64s([]float64{1, 2, 3}) }); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, "sim", 0xDEADBEEF)
	if w.InPlace() != nil || NewSectionWriter(&alpha).InPlace() != &alpha {
		t.Fatal("InPlace wrong: only a writer into an Enc builds in place")
	}
	for _, frag := range []*Enc{&alpha, &beta} {
		if err := w.WriteSections(frag.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("stream of fragments differs from the stream written directly")
	}

	w = NewWriter(io.Discard, "sim", 1)
	w.w = failingWriter{} // the header went out; the disk fills now
	if err := w.WriteSections(alpha.Bytes()); err == nil {
		t.Fatal("write error not reported")
	}
	if err := w.Section("beta", func(*Enc) {}); err == nil {
		t.Fatal("write error not latched")
	}
}
