package tracebin

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"sync"
	"testing"
)

// encodeStream builds one whole columnar stream for recs.
func encodeStream(t *testing.T, recs []Record, opts WriterOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(recs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func appendTestRecords(worker, n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			BS:        worker,
			Interval:  i,
			GroupID:   i % 3,
			Size:      4,
			ActualRBs: 4.1,
		}
	}
	return recs
}

// TestAppendStreamMerge: worker streams merge block-for-block into
// one decodable stream with per-stream record order preserved.
func TestAppendStreamMerge(t *testing.T) {
	var out bytes.Buffer
	aw := NewAppendWriter(&out)
	var want []Record
	for w := 0; w < 3; w++ {
		recs := appendTestRecords(w, 10)
		want = append(want, recs...)
		stream := encodeStream(t, recs, WriterOptions{Compress: w == 1})
		n, err := aw.AppendStream(bytes.NewReader(stream))
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
		if n < 1 {
			t.Fatalf("worker %d: %d blocks appended", w, n)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("decode merged stream: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged records diverged: got %d want %d", len(got), len(want))
	}
}

// TestAppendBlock: a single framed block round-trips, and corrupt
// blocks — flipped byte, truncation, oversized length, trailing junk
// — are rejected with ErrCorrupt before touching the output.
func TestAppendBlock(t *testing.T) {
	stream := encodeStream(t, appendTestRecords(0, 5), WriterOptions{})
	hdrLen := len(encodeStream(t, nil, WriterOptions{}))
	block := stream[hdrLen:]

	var out bytes.Buffer
	aw := NewAppendWriter(&out)
	if err := aw.AppendBlock(block); err != nil {
		t.Fatal(err)
	}
	clean := out.Len()

	bad := append([]byte(nil), block...)
	bad[len(bad)/2]++
	if err := aw.AppendBlock(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped byte: %v", err)
	}
	if err := aw.AppendBlock(block[:len(block)-3]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated block: %v", err)
	}
	huge := append([]byte(nil), block...)
	binary.LittleEndian.PutUint32(huge, uint32(maxFrame+1))
	if err := aw.AppendBlock(huge); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized length: %v", err)
	}
	if err := aw.AppendBlock(append(append([]byte(nil), block...), 0xEE)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing junk: %v", err)
	}
	if out.Len() != clean {
		t.Fatalf("rejected block reached the output (%d vs %d bytes)", out.Len(), clean)
	}
	// Rejections do not latch: a good block still lands.
	if err := aw.AppendBlock(block); err != nil {
		t.Fatalf("append after rejection: %v", err)
	}
	if got, err := ReadAll(bytes.NewReader(out.Bytes())); err != nil || len(got) != 10 {
		t.Fatalf("merged output: %d records, %v", len(got), err)
	}
}

// TestAppendStreamTorn: a stream torn mid-block appends its whole
// verified prefix and reports ErrCorrupt; the merged output stays
// fully decodable.
func TestAppendStreamTorn(t *testing.T) {
	recs := appendTestRecords(0, 40)
	stream := encodeStream(t, recs[:20], WriterOptions{BlockRecords: 16, MinBlockRecords: 1})
	var out bytes.Buffer
	aw := NewAppendWriter(&out)
	torn := stream[:len(stream)-5]
	n, err := aw.AppendStream(bytes.NewReader(torn))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn stream: %v", err)
	}
	if n != 1 {
		t.Fatalf("verified prefix: %d blocks", n)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("merged output unreadable: %v", err)
	}
	if len(got) != 16 {
		t.Fatalf("prefix records: %d", len(got))
	}
	// A headerless (or wrong-format) input is rejected outright.
	if _, err := aw.AppendStream(bytes.NewReader([]byte("not a trace"))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad header: %v", err)
	}
}

// TestAppendWriterConcurrent hammers one AppendWriter from many
// goroutines — the N-writer merge the coordinator performs — and
// checks every record of every stream survives, per-stream ordered.
func TestAppendWriterConcurrent(t *testing.T) {
	const writers = 8
	streams := make([][]byte, writers)
	for w := range streams {
		streams[w] = encodeStream(t, appendTestRecords(w, 64), WriterOptions{BlockRecords: 16, MinBlockRecords: 1})
	}
	var out bytes.Buffer
	aw := NewAppendWriter(&out)
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = aw.AppendStream(bytes.NewReader(streams[w]))
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("merged output: %v", err)
	}
	if len(got) != writers*64 {
		t.Fatalf("merged records: %d want %d", len(got), writers*64)
	}
	// Per-writer order must hold even though streams interleave.
	next := make([]int, writers)
	for _, r := range got {
		w := r.BS
		if w < 0 || w >= writers {
			t.Fatalf("unexpected record %+v", r)
		}
		if r.Interval != next[w] {
			t.Fatalf("writer %d records reordered: got interval %d want %d", w, r.Interval, next[w])
		}
		next[w]++
	}
	for w, n := range next {
		if n != 64 {
			t.Fatalf("writer %d: %d records survived", w, n)
		}
	}
}

// TestAppendWriterEmpty: Close with nothing appended yields a valid
// header-only stream.
func TestAppendWriterEmpty(t *testing.T) {
	var out bytes.Buffer
	aw := NewAppendWriter(&out)
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(bytes.NewReader(out.Bytes()))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty merge: %d records, %v", len(got), err)
	}
}
