package tracebin

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// testRecords builds a deterministic mixed stream: per-cell runs with
// constant and varying columns, negative cells, and awkward floats
// (±0, NaN payload, infinities) that must survive bit-exactly.
func testRecords(n int) []Record {
	rng := rand.New(rand.NewSource(7))
	recs := make([]Record, n)
	for i := range recs {
		r := &recs[i]
		r.BS = (i / 7) % 5
		if i%97 == 0 {
			r.BS = -1
		}
		r.Interval = i / 50
		r.GroupID = i % 11
		r.Size = 40
		r.PredictedRBs = float64(i%13) + 0.5
		r.ActualRBs = rng.Float64() * 100
		r.AllocatedRBs = i % 17
		r.PredictedCycles = 1e9
		r.ActualCycles = 1e9 + float64(i)
		r.PredictedBits = 7e8
		r.ActualBits = 7e8
		r.PredictedWasteBits = 0
		r.ActualWasteBits = math.Copysign(0, -1) // -0 must round-trip
		r.ActualEngagementS = rng.Float64() * 15
		r.WorstSNRdB = -3.25
		r.BitrateBps = 4.5e6
	}
	recs[1].ActualEngagementS = math.NaN()
	recs[2].WorstSNRdB = math.Inf(1)
	recs[3].WorstSNRdB = math.Inf(-1)
	return recs
}

func bitsEqual(a, b Record) bool {
	if a.BS != b.BS || a.Interval != b.Interval || a.GroupID != b.GroupID ||
		a.Size != b.Size || a.AllocatedRBs != b.AllocatedRBs {
		return false
	}
	fa := []float64{a.PredictedRBs, a.ActualRBs, a.PredictedCycles, a.ActualCycles,
		a.PredictedBits, a.ActualBits, a.PredictedWasteBits, a.ActualWasteBits,
		a.ActualEngagementS, a.WorstSNRdB, a.BitrateBps}
	fb := []float64{b.PredictedRBs, b.ActualRBs, b.PredictedCycles, b.ActualCycles,
		b.PredictedBits, b.ActualBits, b.PredictedWasteBits, b.ActualWasteBits,
		b.ActualEngagementS, b.WorstSNRdB, b.BitrateBps}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return true
}

func encode(t *testing.T, recs []Record, opts WriterOptions, flushEvery int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	if flushEvery <= 0 {
		flushEvery = len(recs)
	}
	for lo := 0; lo < len(recs); lo += flushEvery {
		hi := min(lo+flushEvery, len(recs))
		if err := w.Flush(recs[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodeSmallBlocks encodes recs as a stream of many small blocks: one
// Flush per appendSpans span of at most maxN records (cell runs close
// at minN), each of which the writer emits as one block.
func encodeSmallBlocks(t *testing.T, recs []Record, opts WriterOptions, maxN, minN int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range appendSpans(nil, recs, maxN, minN) {
		if err := w.Flush(recs[sp.lo:sp.hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	recs := testRecords(1500)
	for _, tc := range []struct {
		name   string
		recs   []Record
		encode func(*testing.T, []Record) []byte
	}{
		{"sequential", recs, func(t *testing.T, r []Record) []byte { return encode(t, r, WriterOptions{}, 0) }},
		{"compressed", recs, func(t *testing.T, r []Record) []byte { return encode(t, r, WriterOptions{Compress: true}, 0) }},
		{"small-blocks", recs, func(t *testing.T, r []Record) []byte { return encodeSmallBlocks(t, r, WriterOptions{}, 64, 16) }},
		{"multi-flush", recs, func(t *testing.T, r []Record) []byte { return encode(t, r, WriterOptions{Compress: true}, 137) }},
		// Past the block cap: one Flush must split into several blocks.
		{"cap-split", testRecords(3*blockRecords + 5), func(t *testing.T, r []Record) []byte { return encode(t, r, WriterOptions{}, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ReadAll(bytes.NewReader(tc.encode(t, tc.recs)))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.recs) {
				t.Fatalf("decoded %d records, want %d", len(got), len(tc.recs))
			}
			for i := range tc.recs {
				if !bitsEqual(got[i], tc.recs[i]) {
					t.Fatalf("record %d not bit-identical: got %+v want %+v", i, got[i], tc.recs[i])
				}
			}
		})
	}
}

// TestFlushPrefix asserts the crash contract: the bytes after any
// Flush decode to exactly the records flushed so far.
func TestFlushPrefix(t *testing.T) {
	recs := testRecords(700)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	done := 0
	for lo := 0; lo < len(recs); lo += 150 {
		hi := min(lo+150, len(recs))
		if err := w.Flush(recs[lo:hi]); err != nil {
			t.Fatal(err)
		}
		done = hi
		got, rerr := ReadAll(bytes.NewReader(buf.Bytes()))
		if rerr != nil {
			t.Fatalf("prefix after %d records unreadable: %v", done, rerr)
		}
		if len(got) != done {
			t.Fatalf("prefix holds %d records, want %d", len(got), done)
		}
	}
}

// TestEmptyFile: Close with no Flush must still leave a valid,
// self-describing file holding zero records.
func TestEmptyFile(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty run wrote no header")
	}
	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty file decoded %d records", len(got))
	}
}

// TestTruncationPrefix: cutting the stream at any byte offset must
// either yield a clean record prefix (block boundary) or ErrCorrupt —
// never a panic or an untyped failure.
func TestTruncationPrefix(t *testing.T) {
	recs := testRecords(400)
	data := encodeSmallBlocks(t, recs, WriterOptions{}, 64, 8)
	for cut := 0; cut <= len(data); cut++ {
		got, err := ReadAll(bytes.NewReader(data[:cut]))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("cut=%d: untyped error %v", cut, err)
			}
			continue
		}
		if len(got) > len(recs) {
			t.Fatalf("cut=%d: decoded %d records from a prefix", cut, len(got))
		}
		for i := range got {
			if !bitsEqual(got[i], recs[i]) {
				t.Fatalf("cut=%d: record %d differs", cut, i)
			}
		}
	}
}

// TestBitFlips samples single-byte corruptions across a compressed
// stream; every failure must be typed and pre-error records returned
// must be a correct prefix.
func TestBitFlips(t *testing.T) {
	recs := testRecords(600)
	data := encodeSmallBlocks(t, recs, WriterOptions{Compress: true}, 128, 8)
	for off := 0; off < len(data); off += 3 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		got, err := ReadAll(bytes.NewReader(mut))
		if err == nil {
			continue // flips in slack bits can be harmless only if CRC still matches — impossible; but a flip may hit ignored padding in future versions
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
			t.Fatalf("offset %d: untyped error %v", off, err)
		}
		for i := range got {
			if !bitsEqual(got[i], recs[i]) {
				t.Fatalf("offset %d: pre-error record %d differs", off, i)
			}
		}
	}
}

func TestIntOverflowRejected(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("32-bit int cannot overflow the wire field")
	}
	recs := []Record{{GroupIntervalRecord: GroupIntervalRecord{GroupID: math.MaxInt32 + 1}}}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Flush(recs); err == nil {
		t.Fatal("overflowing int accepted")
	}
	if err := w.Flush(nil); err == nil {
		t.Fatal("writer not latched broken after encode failure")
	}
}

func TestVersionRejected(t *testing.T) {
	data := encode(t, testRecords(10), WriterOptions{}, 0)
	mut := append([]byte(nil), data...)
	mut[8] = 0xFF // version low byte
	if _, err := ReadAll(bytes.NewReader(mut)); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version not rejected as ErrVersion: %v", err)
	}
}

func TestSpans(t *testing.T) {
	recs := make([]Record, 0, 40)
	for i := 0; i < 40; i++ {
		recs = append(recs, Record{BS: i / 10})
	}
	spans := appendSpans(nil, recs, 16, 4)
	total := 0
	for i, sp := range spans {
		if sp.hi <= sp.lo {
			t.Fatalf("span %d empty", i)
		}
		if sp.hi-sp.lo > 16 {
			t.Fatalf("span %d over cap: %d", i, sp.hi-sp.lo)
		}
		if total != sp.lo {
			t.Fatalf("span %d not contiguous", i)
		}
		total = sp.hi
	}
	if total != len(recs) {
		t.Fatalf("spans cover %d of %d records", total, len(recs))
	}
	// Alternating cells below the merge minimum must not degenerate
	// into per-record blocks.
	alt := make([]Record, 1000)
	for i := range alt {
		alt[i].BS = i % 16
	}
	spans = appendSpans(nil, alt, 4096, 256)
	if len(spans) > 4 {
		t.Fatalf("fine-grained cell interleaving split into %d blocks", len(spans))
	}
}

// TestReaderAfterError pins that a failed Reader stays failed.
func TestReaderAfterError(t *testing.T) {
	data := encode(t, testRecords(10), WriterOptions{}, 0)
	data = data[:len(data)-2] // tear the final block
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var first error
	for {
		_, err := r.Next()
		if err != nil {
			first = err
			break
		}
	}
	if !errors.Is(first, ErrCorrupt) {
		t.Fatalf("torn block not ErrCorrupt: %v", first)
	}
	if _, err := r.Next(); !errors.Is(err, first) && err != first {
		t.Fatalf("reader did not stay failed: %v", err)
	}
}

func TestReadAllPartial(t *testing.T) {
	recs := testRecords(300)
	data := encodeSmallBlocks(t, recs, WriterOptions{}, 64, 8)
	mut := append([]byte(nil), data...)
	mut[len(mut)-3] ^= 0xFF // corrupt the last block's CRC
	got, err := ReadAll(bytes.NewReader(mut))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if len(got) == 0 || len(got) >= len(recs) {
		t.Fatalf("partial read returned %d of %d records", len(got), len(recs))
	}
	for i := range got {
		if !bitsEqual(got[i], recs[i]) {
			t.Fatalf("record %d differs in partial prefix", i)
		}
	}
}

// TestSizeAdvantage sanity-checks the point of the format: a
// constant-heavy stream must land far below the fixed-width bound.
func TestSizeAdvantage(t *testing.T) {
	recs := testRecords(4096)
	data := encode(t, recs, WriterOptions{}, 0)
	perRecord := float64(len(data)) / float64(len(recs))
	if perRecord > 108 {
		t.Fatalf("%.1f bytes/record — constant-column elision not engaging", perRecord)
	}
}
