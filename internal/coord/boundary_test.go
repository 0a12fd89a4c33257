package coord

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"unsafe"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/cluster"
	"dtmsvs/internal/obs"
)

// twinConfig is the unit scenario at 800 users over 24 intervals and
// without churn: enough twins cross the 2-worker partition at every
// boundary that their bytes, not the boundary's fixed frames, are what
// the coordinator would copy. Workers ship at train and at intervals
// 7, 15 and 23, so intervals 16 to 22 are the non-shipping boundaries
// after two full replay-log cycles, when the supervisor encodes every
// imports frame over a spare.
func twinConfig() cluster.Config {
	c := testClusterConfig(23, 1)
	c.Sim.NumUsers = 800
	c.Sim.NumIntervals = 24
	c.Sim.ChurnPerInterval = 0
	return c
}

// twinWindow is the interval range [lo, hi) the allocation gate reads.
const twinWindowLo, twinWindowHi = 16, 23

// totalAlloc reads the heap bytes allocated so far.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// stillHeap empties the heap's pools — sim keeps one, which a collector
// cycle clears — and stops the collector until the returned func runs,
// so that what a window allocates does not depend on when a cycle
// lands in it.
func stillHeap() (restart func()) {
	runtime.GC()
	runtime.GC()
	pct := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(pct) }
}

// wirelessAlloc runs cfg on two cluster workers that exchange their
// handovers in memory, as the supervisor routes them but with no frame
// in between, and returns the bytes allocated over the window's
// boundaries: what the engines themselves allocate there, an imported
// twin's fresh user included, and what streaming each interval's
// records costs — encoded into a kept buffer and decoded as the worker
// and the supervisor do — so that only the twins' way differs. Each
// engine also writes its state in place where the supervisor has the
// workers ship, since encoding a checkpoint grows buffers that later
// boundaries reuse.
func wirelessAlloc(t *testing.T, cfg cluster.Config) uint64 {
	t.Helper()
	ctx := context.Background()
	ws := make([]*cluster.Worker, 2)
	for i := range ws {
		w, err := cluster.NewWorker(cfg, i, len(ws))
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		ws[i] = w
	}
	routed := make([][]cluster.Handover, len(ws))
	exchange := func() {
		for i := range routed {
			routed[i] = routed[i][:0]
		}
		for i, w := range ws {
			plan, err := w.PlanHandovers()
			if err != nil {
				t.Fatal(err)
			}
			routed[i] = append(routed[i], plan...)
			for _, h := range plan {
				if dst := cluster.WorkerForCell(h.To, cfg.Sim.NumBS, len(ws)); dst != i {
					routed[dst] = append(routed[dst], h)
				}
			}
		}
		for i, w := range ws {
			if err := w.ApplyHandovers(routed[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for range cfg.Defaulted().Sim.WarmupIntervals {
		for _, w := range ws {
			if err := w.WarmupStep(ctx); err != nil {
				t.Fatal(err)
			}
		}
		exchange()
	}
	ckpts := make([]checkpoint.Enc, len(ws))
	ship := func() {
		for i, w := range ws {
			ckpts[i].Reset()
			cw := checkpoint.NewWriter(&ckpts[i], WorkerKind, 0)
			if err := w.WriteState(cw); err != nil {
				t.Fatal(err)
			}
			if err := cw.Finish(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, w := range ws {
		if err := w.TrainAndBuild(ctx); err != nil {
			t.Fatal(err)
		}
	}
	ship()
	var alloc uint64
	var stream checkpoint.Enc
	for n := 0; n < twinWindowHi; n++ {
		if n == twinWindowLo {
			defer stillHeap()()
		}
		a0 := totalAlloc()
		var merged []cluster.Record
		for _, w := range ws {
			recs, err := w.StepInterval(ctx, n)
			if err == nil {
				stream.Reset()
				err = appendRecords(&stream, recs)
			}
			if err == nil {
				merged, err = readRecords(merged, stream.Bytes())
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		exchange()
		if n%replayMax == replayMax-1 {
			ship()
		}
		if n >= twinWindowLo {
			alloc += totalAlloc() - a0
		}
	}
	return alloc
}

// TestBoundaryTwinAllocation is the allocation gate of the boundary's
// twin path: over non-shipping interval boundaries of a 2-worker
// in-process run, the bytes the distributed run allocates beyond the
// same boundaries run without the wire (wirelessAlloc) stay below one
// encoded twin per exported twin. A twin planned into the worker's
// arena, shipped in its exports frame, routed into an imports frame and
// decoded where it lands is copied between buffers that live across
// boundaries; a fresh copy anywhere on that path costs a whole twin.
func TestBoundaryTwinAllocation(t *testing.T) {
	cfg := twinConfig()
	wireless := wirelessAlloc(t, cfg)

	s, err := New(Config{Cluster: cfg, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for range cfg.Defaulted().Sim.WarmupIntervals {
		if err := s.WarmupStep(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.TrainAndBuild(ctx); err != nil {
		t.Fatal(err)
	}
	var alloc uint64
	twins, twinBytes := 0, 0
	for n := 0; n < twinWindowHi; n++ {
		if n == twinWindowLo {
			defer stillHeap()()
		}
		a0 := totalAlloc()
		if _, err := s.StepInterval(ctx, n); err != nil {
			t.Fatal(err)
		}
		if n < twinWindowLo {
			continue
		}
		alloc += totalAlloc() - a0
		for _, h := range s.handles {
			if len(h.log) == 0 {
				t.Fatalf("interval %d shipped a checkpoint inside the window", n)
			}
			for _, x := range h.exports {
				twins++
				twinBytes += len(x.Twin)
			}
		}
	}
	if twins == 0 {
		t.Fatal("no twin crossed the partition inside the window")
	}
	over := int64(alloc) - int64(wireless)
	t.Logf("%d exported twins of %d B on average; %d B allocated beyond the wireless exchange, %.2f twins per twin",
		twins, twinBytes/twins, over, float64(over)/float64(twinBytes))
	if over >= int64(twinBytes) {
		t.Fatalf("the boundaries allocated %d B beyond the wireless exchange for %d exported twins of %d B in all: a twin copy per hop",
			over, twins, twinBytes)
	}
}

// frameSeries reads the bytes one frame type's series of a per-type
// byte counter holds.
func frameSeries(reg *obs.Registry, name string, typ frameType) uint64 {
	return reg.Counter(name, "", obs.Label{Name: "frame", Value: typ.String()}).Value()
}

// TestFrameBytesByType: the coordinator's byte counters split by frame
// type. On a 2-worker run twins cross the partition, so the supervisor
// reads them in exports frames and writes them in imports frames; on
// one worker every exports and imports frame is an empty batch — its
// seq and a zero count — one of each per boundary. Either way every
// frame the supervisor writes is counted under its own type, and the
// series sum to the bytes its transports carried (the shutdown frames
// aside, which Close does not wait to see counted).
func TestFrameBytesByType(t *testing.T) {
	const tx, rx = "dtmsvs_coord_tx_bytes_total", "dtmsvs_coord_rx_bytes_total"
	cfg := testClusterConfig(19, 1)
	d := cfg.Defaulted().Sim
	boundaries := uint64(d.WarmupIntervals + 1 + d.NumIntervals + 1) // the last a checkpoint-only one
	empty := uint64(frameOverhead + 8 + 4)
	for _, workers := range []int{1, 2} {
		reg := obs.New()
		var written atomic.Uint64 // the workers' senders write concurrently
		c := Config{Cluster: cfg, Workers: workers, Metrics: reg}
		c.Transport = spawnHook(func(_, _ int, tr Transport) Transport {
			return writeTap{tr, func(typ frameType, p []byte) {
				if typ != fShutdown { // Close returns before the sender has counted it
					written.Add(uint64(frameOverhead + len(p)))
				}
			}}
		})
		got := driveSupervisor(t, c)
		if got.restarts != 0 {
			t.Fatalf("%d workers: %d restarts in a healthy run", workers, got.restarts)
		}
		exports, imports := frameSeries(reg, rx, fExports), frameSeries(reg, tx, fImports)
		batches := uint64(workers) * boundaries * empty
		if workers == 1 && (exports != batches || imports != batches) {
			t.Fatalf("1 worker: exports %d B, imports %d B, want %d B each: one empty batch per boundary", exports, imports, batches)
		}
		if workers == 2 && (exports <= batches || imports <= batches) {
			t.Fatalf("2 workers: exports %d B, imports %d B, want more than %d B of empty batches: no twin crossed", exports, imports, batches)
		}
		var sum uint64
		for typ := range frameNames {
			if frameType(typ) != fShutdown {
				sum += frameSeries(reg, tx, frameType(typ))
			}
		}
		if sum != written.Load() {
			t.Fatalf("%d workers: tx series sum to %d B, the transports carried %d B", workers, sum, written.Load())
		}
		for _, typ := range []frameType{fReady, fRecords, fBoundary} {
			if frameSeries(reg, rx, typ) == 0 {
				t.Fatalf("%d workers: no %s bytes read", workers, typ)
			}
		}
	}
}

// FuzzDecodeHandovers: arbitrary bytes decode as a twin batch or fail
// with checkpoint.ErrCorrupt — never panic. Every decoded twin is a
// window of the input that cannot grow into the bytes after it, and a
// batch that decodes whole re-encodes through appendHandovers to the
// input, byte for byte, at the length handoversSize promises.
func FuzzDecodeHandovers(f *testing.F) {
	batch := func(hs ...cluster.Handover) []byte {
		var e checkpoint.Enc
		appendHandovers(&e, hs)
		return e.Bytes()
	}
	f.Add(batch())
	f.Add(batch(cluster.Handover{ID: 3, From: 0, To: 2, Twin: []byte("twin")}))
	two := batch(
		cluster.Handover{ID: 1, From: 1, To: 0, Twin: bytes.Repeat([]byte{9}, 300)},
		cluster.Handover{ID: 7, From: 2, To: 3},
		cluster.Handover{ID: 8, From: 3, To: 1, Twin: []byte{1}},
	)
	f.Add(two)
	f.Add(two[:len(two)-5])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := checkpoint.NewDec(data)
		hs, err := decodeHandovers(d, nil)
		if err == nil {
			err = d.Close()
		}
		if err != nil {
			if !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
		for i, h := range hs {
			if h.Twin == nil {
				continue
			}
			at := uintptr(unsafe.Pointer(unsafe.SliceData(h.Twin)))
			if len(h.Twin) == 0 || at < lo || at+uintptr(len(h.Twin)) > lo+uintptr(len(data)) {
				t.Fatalf("move %d: twin of %d B outside the %d B input", i, len(h.Twin), len(data))
			}
			if cap(h.Twin) != len(h.Twin) {
				t.Fatalf("move %d: twin of %d B has room for %d", i, len(h.Twin), cap(h.Twin))
			}
		}
		var e checkpoint.Enc
		appendHandovers(&e, hs)
		if !bytes.Equal(e.Bytes(), data) {
			t.Fatalf("batch of %d moves re-encodes to %d B, decoded from %d B", len(hs), len(e.Bytes()), len(data))
		}
		if n := handoversSize(hs); n != len(data) {
			t.Fatalf("handoversSize %d B for a %d B batch", n, len(data))
		}
	})
}
