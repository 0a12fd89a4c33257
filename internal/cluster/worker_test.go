package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/sim"
)

// runPartitioned drives a set of Workers through the full scenario by
// hand — the supervisor's exchange loop without the wire — and
// returns the merged trace.
func runPartitioned(t *testing.T, cfg Config, count int) *Trace {
	t.Helper()
	ws := make([]*Worker, count)
	for i := range ws {
		w, err := NewWorker(cfg, i, count)
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		defer w.Close()
		ws[i] = w
	}
	ctx := context.Background()
	exchange := func() {
		t.Helper()
		apply := make([][]Handover, count)
		for i, w := range ws {
			plan, err := w.PlanHandovers()
			if err != nil {
				t.Fatalf("worker %d plan: %v", i, err)
			}
			apply[i] = append(apply[i], plan...)
			for _, h := range plan {
				if dst := WorkerForCell(h.To, cfg.Defaulted().Sim.NumBS, count); dst != i {
					apply[dst] = append(apply[dst], h)
				}
			}
		}
		for i, w := range ws {
			if err := w.ApplyHandovers(apply[i]); err != nil {
				t.Fatalf("worker %d apply: %v", i, err)
			}
		}
	}
	d := cfg.Defaulted()
	for wi := 0; wi < d.Sim.WarmupIntervals; wi++ {
		for i, w := range ws {
			if err := w.WarmupStep(ctx); err != nil {
				t.Fatalf("worker %d warmup: %v", i, err)
			}
		}
		exchange()
	}
	for i, w := range ws {
		if err := w.TrainAndBuild(ctx); err != nil {
			t.Fatalf("worker %d train: %v", i, err)
		}
	}
	tr := &Trace{}
	for interval := 0; interval < d.Sim.NumIntervals; interval++ {
		for i, w := range ws {
			recs, err := w.StepInterval(ctx, interval)
			if err != nil {
				t.Fatalf("worker %d interval %d: %v", i, interval, err)
			}
			tr.Records = append(tr.Records, recs...)
		}
		exchange()
	}
	var hits, misses int
	for _, w := range ws {
		cells, h, m := w.FinishStats()
		tr.Cells = append(tr.Cells, cells...)
		hits += h
		misses += m
		tr.Handovers += w.Handovers()
		tr.ChurnedUsers += w.Churned()
	}
	if total := hits + misses; total > 0 {
		tr.CacheHitRate = float64(hits) / float64(total)
	}
	return tr
}

// TestWorkerPartitionBitIdentical is the distributed engine's core
// guarantee at the partition layer: stepping disjoint cell blocks in
// separate Workers and exchanging boundary handovers (twins crossing
// workers as wire bytes) reproduces the single-process merged trace
// bit for bit, for every worker count.
func TestWorkerPartitionBitIdentical(t *testing.T) {
	for _, seed := range []int64{3, 97} {
		cfg := Config{Sim: testSimConfig(seed, 2)}
		base := runConfig(t, cfg)
		for _, count := range []int{1, 2, 4} {
			tr := runPartitioned(t, cfg, count)
			if !reflect.DeepEqual(tr.Records, base.Records) {
				t.Fatalf("seed %d workers %d: records diverged", seed, count)
			}
			if !reflect.DeepEqual(tr.Cells, base.Cells) {
				t.Fatalf("seed %d workers %d: cell stats diverged:\n got %+v\nwant %+v",
					seed, count, tr.Cells, base.Cells)
			}
			if tr.Handovers != base.Handovers || tr.ChurnedUsers != base.ChurnedUsers ||
				tr.CacheHitRate != base.CacheHitRate {
				t.Fatalf("seed %d workers %d: run stats diverged: got %+v want %+v",
					seed, count, tr, base)
			}
		}
	}
}

// TestWorkerCheckpointRoundTrip checkpoints one worker mid-run,
// restores it into a fresh worker, and verifies the restored state
// re-encodes to identical bytes — the property worker crash recovery
// rests on.
func TestWorkerCheckpointRoundTrip(t *testing.T) {
	cfg := Config{Sim: testSimConfig(7, 1)}
	const count = 2
	ws := make([]*Worker, count)
	for i := range ws {
		w, err := NewWorker(cfg, i, count)
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		defer w.Close()
		ws[i] = w
	}
	ctx := context.Background()
	step := func() {
		t.Helper()
		apply := make([][]Handover, count)
		for i, w := range ws {
			plan, err := w.PlanHandovers()
			if err != nil {
				t.Fatalf("plan %d: %v", i, err)
			}
			apply[i] = append(apply[i], plan...)
			for _, h := range plan {
				if dst := WorkerForCell(h.To, cfg.Defaulted().Sim.NumBS, count); dst != i {
					apply[dst] = append(apply[dst], h)
				}
			}
		}
		for i, w := range ws {
			if err := w.ApplyHandovers(apply[i]); err != nil {
				t.Fatalf("apply %d: %v", i, err)
			}
		}
	}
	for wi := 0; wi < cfg.Defaulted().Sim.WarmupIntervals; wi++ {
		for _, w := range ws {
			if err := w.WarmupStep(ctx); err != nil {
				t.Fatal(err)
			}
		}
		step()
	}
	for _, w := range ws {
		if err := w.TrainAndBuild(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for interval := 0; interval < 2; interval++ {
		for _, w := range ws {
			if _, err := w.StepInterval(ctx, interval); err != nil {
				t.Fatal(err)
			}
		}
		step()
	}

	encode := func(w *Worker) []byte {
		t.Helper()
		var buf bytes.Buffer
		cw := checkpoint.NewWriter(&buf, "dtworker", 0)
		if err := w.WriteState(cw); err != nil {
			t.Fatalf("write state: %v", err)
		}
		if err := cw.Finish(); err != nil {
			t.Fatalf("finish: %v", err)
		}
		return buf.Bytes()
	}
	blob := encode(ws[0])
	fresh, err := NewWorker(cfg, 0, count)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	cr, err := checkpoint.NewReader(bytes.NewReader(blob), "dtworker", 0)
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	if err := fresh.ReadState(cr); err != nil {
		t.Fatalf("read state: %v", err)
	}
	if err := cr.Finish(); err != nil {
		t.Fatalf("reader finish: %v", err)
	}
	if fresh.NumUsers() != ws[0].NumUsers() {
		t.Fatalf("restored worker has %d users, want %d", fresh.NumUsers(), ws[0].NumUsers())
	}
	if got := encode(fresh); !bytes.Equal(got, blob) {
		t.Fatalf("restored worker re-encodes to different bytes (%d vs %d)", len(got), len(blob))
	}
}

// rawSections splits a checkpoint stream into its header and the raw
// bytes of each section (name, length, payload and CRC), in order.
func rawSections(t *testing.T, blob []byte) (header []byte, secs [][]byte) {
	t.Helper()
	u32 := func(at int) int {
		if at+4 > len(blob) {
			t.Fatalf("checkpoint truncated at %d", at)
		}
		return int(binary.LittleEndian.Uint32(blob[at:]))
	}
	at := 8 + 2 // magic, version
	at += 4 + u32(at) + 8
	header = blob[:at]
	for at < len(blob) {
		start := at
		at += 4 + u32(at)
		at += 4 + u32(at) + 4
		secs = append(secs, blob[start:at])
	}
	return header, secs
}

// TestWorkerBuildsOnlyOwnedCells: a worker builds an engine for its
// own cells and for no other; its checkpoint carries sim sections for
// exactly those cells; and a blob whose sections do not match the
// slot's owned set — the layout of a build that wrote a section set for
// every cell, empty ones included, or one missing an owned cell — is
// refused with ErrCorrupt, never restored.
func TestWorkerBuildsOnlyOwnedCells(t *testing.T) {
	cfg := Config{Sim: testSimConfig(5, 1)}
	d := cfg.Defaulted()
	const count = 2
	for index := range count {
		w, err := NewWorker(cfg, index, count)
		if err != nil {
			t.Fatal(err)
		}
		for c, cs := range w.cells {
			if (cs != nil) != w.mask[c] {
				t.Fatalf("worker %d: cell %d built %v, owned %v", index, c, cs != nil, w.mask[c])
			}
		}
		blob := stateBytes(t, w.Engine)
		header, secs := rawSections(t, blob)
		if want := 1 + 5*len(w.owned) + 1; len(secs) != want {
			t.Fatalf("worker %d: blob has %d sections, want %d (cluster, 5 per owned cell, end)", index, len(secs), want)
		}

		// The layout of a build that constructed every cell: each
		// un-owned cell's sections are those of a fresh, empty cell.
		var empty [][]byte
		for c := range w.cells {
			if w.mask[c] {
				continue
			}
			server, err := w.sub.NewServer(d.Sim.CacheBytes / int64(d.Sim.NumBS))
			if err != nil {
				t.Fatal(err)
			}
			eng, err := sim.NewCell(d.Sim, sim.CellOptions{Substrate: w.sub, Server: server, BS: c, DownBS: w.down})
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
			_, cs := rawSections(t, buf.Bytes())
			empty = append(empty, cs[:5]...)
		}
		legacy := append(append([]byte(nil), header...), secs[0]...)
		own := secs[1 : len(secs)-1]
		for c := range w.cells {
			var cell [][]byte
			if w.mask[c] {
				cell, own = own[:5], own[5:]
			} else {
				cell, empty = empty[:5], empty[5:]
			}
			for _, s := range cell {
				legacy = append(legacy, s...)
			}
		}
		legacy = append(legacy, secs[len(secs)-1]...)

		short := append([]byte(nil), header...)
		for _, s := range append(secs[:len(secs)-6:len(secs)-6], secs[len(secs)-1]) {
			short = append(short, s...)
		}

		for name, b := range map[string][]byte{"every cell": legacy, "an owned cell missing": short} {
			fresh, err := NewWorker(cfg, index, count)
			if err != nil {
				t.Fatal(err)
			}
			cr, err := checkpoint.NewReader(bytes.NewReader(b), "dtworker", 0)
			if err != nil {
				t.Fatal(err)
			}
			err = fresh.ReadState(cr)
			if err == nil {
				err = cr.Finish()
			}
			if !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("worker %d, sections for %s: restore = %v, want ErrCorrupt", index, name, err)
			}
		}
	}
}

// TestNewWorkerBuildsOwnedUsers: a worker builds only the users that
// start in its own cells (it places every user, to know where each
// starts, but builds no link, twin or filters for the others), so each
// of two workers allocates at most 0.6 of what the one-worker
// partition of the same scenario does.
func TestNewWorkerBuildsOwnedUsers(t *testing.T) {
	sc := testSimConfig(3, 1)
	sc.NumUsers = 2000
	cfg := Config{Sim: sc}
	build := func(index, count int) uint64 {
		stop := stillHeap()
		a0 := totalAlloc()
		w, err := NewWorker(cfg, index, count)
		alloc := totalAlloc() - a0
		stop()
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		return alloc
	}
	whole := build(0, 1)
	for index := range 2 {
		half := build(index, 2)
		ratio := float64(half) / float64(whole)
		t.Logf("worker %d of 2 allocates %d B, the partition of one %d B (%.2f)", index, half, whole, ratio)
		if ratio > 0.6 {
			t.Fatalf("worker %d of 2 allocates %.2f of the partition of one, want at most 0.6", index, ratio)
		}
	}
}
