package dtmsvs

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/cluster"
	"dtmsvs/internal/sim"
)

// splitCheckpoint splits a checkpoint stream into its header and the
// raw bytes of each section (name, length, payload, CRC), in order.
func splitCheckpoint(t *testing.T, b []byte) (header []byte, secs [][]byte) {
	t.Helper()
	u32 := func(at int) int {
		if at+4 > len(b) {
			t.Fatalf("checkpoint truncated at %d", at)
		}
		return int(binary.LittleEndian.Uint32(b[at:]))
	}
	at := 8 + 2 // magic, version
	at += 4 + u32(at) + 8
	header = b[:at]
	for at < len(b) {
		start := at
		at += 4 + u32(at)
		at += 4 + u32(at) + 4
		secs = append(secs, b[start:at])
	}
	return header, secs
}

// sectionPayload returns the payload of one raw section.
func sectionPayload(sec []byte) []byte {
	at := 4 + int(binary.LittleEndian.Uint32(sec))
	n := int(binary.LittleEndian.Uint32(sec[at:]))
	return sec[at+4 : at+4+n]
}

// blobSection frames blob as a section whose payload is the one
// length-prefixed blob, as checkpoint.Writer.BlobSection does.
func blobSection(name string, blob []byte) []byte {
	var payload, sec checkpoint.Enc
	payload.Blob(blob)
	sec.String(name)
	sec.Blob(payload.Bytes())
	sec.U32(crc32.ChecksumIEEE(payload.Bytes()))
	return sec.Bytes()
}

// distributedWorkerBlobs returns each worker's blob out of a
// distributed session checkpoint, and the sections around them.
func distributedWorkerBlobs(t *testing.T, ckpt []byte, workers int) (header []byte, secs [][]byte, blobs [][]byte) {
	t.Helper()
	header, secs = splitCheckpoint(t, ckpt)
	if len(secs) != 2+workers+1 {
		t.Fatalf("distributed checkpoint has %d sections, want session, coord, %d workers, end", len(secs), workers)
	}
	for i := range workers {
		blobs = append(blobs, sectionPayload(secs[2+i])[4:])
	}
	return header, secs, blobs
}

// TestDistributedCheckpointCopiesOnce: a checkpoint-only boundary on
// two in-process workers carries each worker blob from the worker's
// engine into the session checkpoint with one copy — the supervisor's
// fresh read buffer. Once a first checkpoint has sized every buffer,
// the next may allocate at most 1.25× the blobs' bytes; a second copy
// anywhere on the path (into a separate blob buffer, a section
// encoder or the caller's slices) puts it at 2× or more.
func TestDistributedCheckpointCopiesOnce(t *testing.T) {
	cfg := distTestConfig(29, 1)
	cfg.Sim.NumUsers = 400
	s, err := OpenDistributed(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for s.Interval() < 1 {
		if _, err := s.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := s.Checkpoint(&out); err != nil {
		t.Fatal(err)
	}
	out.Grow(2 * out.Len())
	out.Reset()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.Checkpoint(&out); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	_, _, blobs := distributedWorkerBlobs(t, out.Bytes(), 2)
	blobBytes := 0
	for _, b := range blobs {
		blobBytes += len(b)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	ratio := float64(alloc) / float64(blobBytes)
	t.Logf("checkpoint-only boundary allocated %d B for %d B of worker blobs (%.2f×)", alloc, blobBytes, ratio)
	if ratio > 1.25 {
		t.Fatalf("checkpoint-only boundary allocated %d B for %d B of worker blobs (%.2f×, bound 1.25×)", alloc, blobBytes, ratio)
	}
}

// everyCellWorkerBlob rewrites a worker blob into the layout of a
// build whose workers built every cell: the same "cluster" section,
// then sim sections for every cell in id order — the worker's own for
// its cells, and a fresh, empty cell's for each of the others.
func everyCellWorkerBlob(t *testing.T, cfg ClusterConfig, index, count int, blob []byte) []byte {
	t.Helper()
	d := cfg.Defaulted()
	sub, err := sim.NewSubstrate(d.Sim)
	if err != nil {
		t.Fatal(err)
	}
	header, secs := splitCheckpoint(t, blob)
	out := append(append([]byte(nil), header...), secs[0]...)
	own := secs[1 : len(secs)-1]
	for c := range d.Sim.NumBS {
		if cluster.WorkerForCell(c, d.Sim.NumBS, count) == index {
			for _, s := range own[:5] {
				out = append(out, s...)
			}
			own = own[5:]
			continue
		}
		server, err := sub.NewServer(d.Sim.CacheBytes / int64(d.Sim.NumBS))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := sim.NewCell(d.Sim, sim.CellOptions{Substrate: sub, Server: server, BS: c, DownBS: make([]bool, d.Sim.NumBS)})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		cw := checkpoint.NewWriter(&buf, "dtworker", 0)
		if err := eng.WriteState(cw); err != nil {
			t.Fatal(err)
		}
		if err := cw.Finish(); err != nil {
			t.Fatal(err)
		}
		_, cs := splitCheckpoint(t, buf.Bytes())
		for _, s := range cs[:5] {
			out = append(out, s...)
		}
	}
	if len(own) != 0 {
		t.Fatalf("worker %d blob has %d sections beyond its cells", index, len(own))
	}
	return append(out, secs[len(secs)-1]...)
}

// TestDistributedResumeRefusesEveryCellBlobs: a distributed checkpoint
// whose worker blobs carry sim sections for every cell — what workers
// wrote before they built only their own cells — fails the resumed run
// at the worker restore, naming it, instead of restoring other cells'
// state into the worker's. The same checkpoint reassembled around the
// unmodified blobs resumes, so the refusal is the layout's.
func TestDistributedResumeRefusesEveryCellBlobs(t *testing.T) {
	cfg := distTestConfig(61, 1)
	a, err := OpenDistributed(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for range 3 {
		if _, err := a.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	var mid bytes.Buffer
	if err := a.Checkpoint(&mid); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	header, secs, blobs := distributedWorkerBlobs(t, mid.Bytes(), 2)
	reassemble := func(rewrite func(i int, blob []byte) []byte) []byte {
		out := append(append([]byte(nil), header...), secs[0]...)
		out = append(out, secs[1]...)
		for i, b := range blobs {
			out = append(out, blobSection(fmt.Sprintf("worker%d", i), rewrite(i, b))...)
		}
		return append(out, secs[len(secs)-1]...)
	}
	resumeStep := func(ckpt []byte) error {
		s, err := ResumeDistributed(cfg, 2, bytes.NewReader(ckpt))
		if err != nil {
			return err
		}
		defer s.Close()
		_, err = s.Step(context.Background())
		return err
	}

	same := reassemble(func(_ int, b []byte) []byte { return b })
	if !bytes.Equal(same, mid.Bytes()) {
		t.Fatal("reassembling the checkpoint around its own blobs changed its bytes")
	}
	if err := resumeStep(same); err != nil {
		t.Fatalf("resume of the reassembled checkpoint: %v", err)
	}
	legacy := reassemble(func(i int, b []byte) []byte { return everyCellWorkerBlob(t, cfg, i, 2, b) })
	err = resumeStep(legacy)
	if err == nil || !strings.Contains(err.Error(), "restore worker") {
		t.Fatalf("resume of every-cell worker blobs: %v, want a failed worker restore", err)
	}
	t.Log(err)
}
