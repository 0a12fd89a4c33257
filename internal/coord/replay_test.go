package coord

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/cluster"
	"dtmsvs/internal/faultinject"
	"dtmsvs/internal/obs"
)

// replayConfig is the unit scenario stretched to 18 intervals — more
// than 2·replayMax, so a worker's log fills, ships and refills twice.
func replayConfig(seed int64) cluster.Config {
	c := testClusterConfig(seed, 1)
	c.Sim.NumIntervals = 18
	return c
}

// replayFailure is fastFailure with a miss budget loose enough (200ms)
// that only an injected fault restarts a worker, never a slow
// scheduler, so restart and replay counts are exact.
func replayFailure(cfg *Config) {
	fastFailure(cfg)
	cfg.HeartbeatMiss = 20
	cfg.HangDuration = 400 * time.Millisecond
}

// workerCounter reads one worker's series of a per-worker counter.
func workerCounter(reg *obs.Registry, name string, worker int) uint64 {
	return reg.Counter(name, "", obs.Label{Name: "worker", Value: strconv.Itoa(worker)}).Value()
}

// intervalSeq is the step seq of interval n: warm-up boundaries take
// seqs 1..W and train W+1.
func intervalSeq(d cluster.Config, n int) int64 {
	return int64(d.Sim.WarmupIntervals + 2 + n)
}

// frameSeq reads the seq that leads records, exports and boundary
// payloads.
func frameSeq(payload []byte) int64 { return checkpoint.NewDec(payload).I64() }

// relayTransport is a worker transport whose frames reach the
// supervisor through a relay goroutine.
type relayTransport struct {
	Transport
	r *io.PipeReader
}

func (t *relayTransport) Reader() io.Reader { return t.r }

func (t *relayTransport) Kill() {
	t.Transport.Kill()
	t.r.CloseWithError(errKilled)
}

// relayed passes inner's frames to the supervisor through a goroutine
// that decodes and re-frames each one and hands it to hook with a
// forward function: hook may hold a frame back, rewrite it, send
// others in its place, or act once it is through — the pipe is
// synchronous, so a forwarded frame has reached the supervisor's pump.
// The payload hook sees is valid until it returns.
func relayed(inner Transport, hook func(typ frameType, payload []byte, forward func(frameType, []byte))) Transport {
	pr, pw := io.Pipe()
	go func() {
		br := bufio.NewReader(inner.Reader())
		var buf []byte
		for {
			typ, payload, nbuf, err := ReadFrame(br, buf)
			buf = nbuf
			if err != nil {
				pw.CloseWithError(err)
				return
			}
			hook(typ, payload, func(typ frameType, p []byte) { _, _ = pw.Write(appendFrame(nil, typ, p)) })
		}
	}()
	return &relayTransport{Transport: inner, r: pr}
}

// spawnHook builds in-process transports and lets wrap replace the one
// for the k-th spawn (from 1) of worker index. The supervisor calls
// its factory from one goroutine.
func spawnHook(wrap func(index, k int, t Transport) Transport) TransportFactory {
	inner := InProcess()
	spawns := map[int]int{}
	return func(index int) (Transport, error) {
		t, err := inner(index)
		if err != nil {
			return nil, err
		}
		spawns[index]++
		return wrap(index, spawns[index], t), nil
	}
}

// assertSameCheckpoints compares final worker checkpoints byte for byte.
func assertSameCheckpoints(t *testing.T, got, want [][]byte, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d final checkpoints want %d", label, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: worker %d final checkpoint diverged", label, i)
		}
	}
}

// TestSupervisorReplayEveryLogPosition lands a kill, a hang and a
// garbage frame on each worker at each interval of a run long enough
// to fill the replay log twice (a few positions here; every one under
// DTMSVS_CHAOS=1). Each costs exactly one restart that replays the
// interval's logged boundaries — interval m runs with m mod replayMax
// of them, since train ships and so does every replayMax-th interval
// — and the trace and final checkpoints stay byte-identical to the
// unfaulted run. Interval 7 and 15 faults replay a full log: hello,
// seven step + imports pairs and the in-flight pair, one queue.
func TestSupervisorReplayEveryLogPosition(t *testing.T) {
	const seed = 23
	base := Config{Cluster: replayConfig(seed), Workers: 2}
	want := runEngine(t, replayConfig(seed))
	clean := driveSupervisor(t, base)
	assertMatchesEngine(t, clean, want, "clean")

	type position struct {
		worker, interval int
		kind             faultinject.ProcFaultKind
	}
	positions := []position{
		{0, 7, faultinject.ProcKill},
		{1, 15, faultinject.ProcHang},
		{0, 10, faultinject.ProcGarbage},
		{1, 16, faultinject.ProcKill},
	}
	if os.Getenv("DTMSVS_CHAOS") != "" {
		positions = nil
		for _, kind := range []faultinject.ProcFaultKind{faultinject.ProcKill, faultinject.ProcHang, faultinject.ProcGarbage} {
			for w := 0; w < base.Workers; w++ {
				for n := 0; n < base.Cluster.Sim.NumIntervals; n++ {
					positions = append(positions, position{w, n, kind})
				}
			}
		}
	}
	for _, p := range positions {
		cfg := base
		replayFailure(&cfg)
		reg := obs.New()
		cfg.Metrics = reg
		cfg.Faults = []faultinject.ProcFault{{Worker: p.worker, Interval: p.interval, Kind: p.kind}}
		got := driveSupervisor(t, cfg)
		label := fmt.Sprintf("%v on worker %d at interval %d", p.kind, p.worker, p.interval)
		assertMatchesEngine(t, got, want, label)
		assertSameCheckpoints(t, got.ckpts, clean.ckpts, label)
		if got.restarts != 1 {
			t.Fatalf("%s: %d restarts want 1", label, got.restarts)
		}
		for w := 0; w < base.Workers; w++ {
			wantReplayed := uint64(0)
			if w == p.worker {
				wantReplayed = uint64(p.interval % replayMax)
			}
			if r := workerCounter(reg, "dtmsvs_coord_replayed_boundaries_total", w); r != wantReplayed {
				t.Fatalf("%s: worker %d replayed %d boundaries want %d", label, w, r, wantReplayed)
			}
		}
	}
}

// TestSupervisorReplayAckedInFlight loses worker 0 right after it acked
// boundary n, while worker 1 hangs on its own boundary-n frame until
// worker 0 is back: the boundary is still in flight when the loss
// lands. Acked without a checkpoint (n = 3), the restart must replay
// boundary n too, after the logged ones, or the worker would take
// step n+1 from the wrong state; acked with one (n = 7), it restarts
// idle at that checkpoint. Either way the run finishes bit-identically.
func TestSupervisorReplayAckedInFlight(t *testing.T) {
	const seed = 29
	base := Config{Cluster: replayConfig(seed), Workers: 2}
	want := runEngine(t, replayConfig(seed))
	clean := driveSupervisor(t, base)
	d := base.Cluster.Defaulted()
	for n, wantReplayed := range map[int]uint64{3: 3 + 1, 7: 0} {
		seq := intervalSeq(d, n)
		respawned := make(chan struct{})
		cfg := base
		replayFailure(&cfg)
		reg := obs.New()
		cfg.Metrics = reg
		cfg.Transport = spawnHook(func(index, k int, tr Transport) Transport {
			switch {
			case index == 0 && k == 1:
				return relayed(tr, func(typ frameType, p []byte, forward func(frameType, []byte)) {
					forward(typ, p)
					if typ == fBoundary && frameSeq(p) == seq {
						tr.Kill()
					}
				})
			case index == 0 && k == 2:
				close(respawned)
			case index == 1 && k == 1:
				return relayed(tr, func(typ frameType, p []byte, forward func(frameType, []byte)) {
					if typ == fBoundary && frameSeq(p) == seq {
						select {
						case <-respawned:
						case <-time.After(5 * time.Second):
						}
					}
					forward(typ, p)
				})
			}
			return tr
		})
		got := driveSupervisor(t, cfg)
		label := "acked interval " + strconv.Itoa(n)
		assertMatchesEngine(t, got, want, label)
		assertSameCheckpoints(t, got.ckpts, clean.ckpts, label)
		if got.restarts != 1 {
			t.Fatalf("%s: %d restarts want 1", label, got.restarts)
		}
		if r := workerCounter(reg, "dtmsvs_coord_replayed_boundaries_total", 0); r != wantReplayed {
			t.Fatalf("%s: worker 0 replayed %d boundaries want %d", label, r, wantReplayed)
		}
	}
}

// writeTap hands each frame the supervisor writes to a worker to see
// before passing it on.
type writeTap struct {
	Transport
	see func(typ frameType, payload []byte)
}

func (t writeTap) Writer() io.Writer { return t }

func (t writeTap) Write(b []byte) (int, error) {
	// conn.send hands over one whole frame per Write.
	t.see(frameType(b[4]), b[5:len(b)-4])
	return t.Transport.Writer().Write(b)
}

// TestSupervisorCheckpointCadence: a healthy run asks its workers for a
// checkpoint at train, at every checkpoint-only boundary and at every
// 8th boundary since the last checkpoint — and nowhere else — and
// each worker ships exactly those.
func TestSupervisorCheckpointCadence(t *testing.T) {
	cfg := Config{Cluster: replayConfig(31), Workers: 2}
	reg := obs.New()
	cfg.Metrics = reg
	steps := make([][]string, cfg.Workers)
	cfg.Transport = spawnHook(func(index, _ int, tr Transport) Transport {
		return writeTap{tr, func(typ frameType, p []byte) {
			if typ == fStep {
				d := checkpoint.NewDec(p)
				ph, n, _, ship := phase(d.U8()), d.I64(), d.I64(), d.Bool()
				steps[index] = append(steps[index], fmt.Sprintf("%s %d %v", ph, n, ship))
			}
		}}
	})
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := t.Context()
	if err := s.WarmupStep(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.TrainAndBuild(ctx); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 18; n++ {
		if _, err := s.StepInterval(ctx, n); err != nil {
			t.Fatal(err)
		}
		if n == 3 || n == 17 {
			if _, err := s.CheckpointBlobs(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}

	shipsAt := map[string]bool{"train 0": true, "interval 11": true}
	var wantSteps []string
	add := func(ph phase, n int) {
		name := fmt.Sprintf("%s %d", ph, n)
		wantSteps = append(wantSteps, fmt.Sprintf("%s %v", name, shipsAt[name] || ph == phaseCkpt))
	}
	add(phaseWarmup, 0)
	add(phaseTrain, 0)
	for n := 0; n < 18; n++ {
		add(phaseInterval, n)
		if n == 3 || n == 17 {
			add(phaseCkpt, -1)
		}
	}
	for w := range steps {
		if !reflect.DeepEqual(steps[w], wantSteps) {
			t.Fatalf("worker %d steps:\n got %q\nwant %q", w, steps[w], wantSteps)
		}
		if c := workerCounter(reg, "dtmsvs_coord_worker_checkpoints_total", w); c != 4 {
			t.Fatalf("worker %d shipped %d checkpoints want 4", w, c)
		}
		if r := workerCounter(reg, "dtmsvs_coord_replayed_boundaries_total", w); r != 0 {
			t.Fatalf("worker %d replayed %d boundaries in a healthy run", w, r)
		}
	}
	if s.Restarts() != 0 {
		t.Fatalf("%d restarts in a healthy run", s.Restarts())
	}
}

// shipLen reads the checkpoint length a boundary payload announces.
func shipLen(p []byte) int64 {
	d := checkpoint.NewDec(p)
	for range 4 {
		d.I64()
	}
	return d.I64()
}

// rewriteBoundary re-encodes a boundary payload announcing a
// checkpoint of n bytes.
func rewriteBoundary(p []byte, n int64) []byte {
	d := checkpoint.NewDec(p)
	var e checkpoint.Enc
	for range 4 {
		e.I64(d.I64())
	}
	d.I64()
	e.I64(n)
	e.Blob(d.Blob())
	return e.Bytes()
}

// TestSupervisorShipMismatch: a boundary whose ship contradicts the
// step's request — dropped where asked, or sent where not — or whose
// chunks do not add up to the length it announces is a protocol
// violation. With budget the worker restarts and the run finishes
// bit-identically; without, the run fails naming it.
func TestSupervisorShipMismatch(t *testing.T) {
	const seed = 37
	base := Config{Cluster: replayConfig(seed), Workers: 2}
	want := runEngine(t, replayConfig(seed))
	clean := driveSupervisor(t, base)
	d := base.Cluster.Defaulted()
	// Train is the boundary just before interval 0. A loss there
	// replays the warm-up boundary; one at interval 2, intervals 0 and 1.
	train := intervalSeq(d, -1)
	for name, c := range map[string]struct {
		seq int64
		// ship rewrites the boundary's chunks and announced length.
		ship         func(chunks [][]byte, n int64) ([][]byte, int64)
		wantReplayed uint64
	}{
		"dropped at train": {train, func([][]byte, int64) ([][]byte, int64) { return nil, 0 }, 1},
		"sent at interval 2": {intervalSeq(d, 2), func([][]byte, int64) ([][]byte, int64) {
			return [][]byte{[]byte("not asked")}, 9
		}, 2},
		"chunk short at train": {train, func(c [][]byte, n int64) ([][]byte, int64) { return c[:len(c)-1], n }, 1},
		"chunk extra at train": {train, func(c [][]byte, n int64) ([][]byte, int64) {
			return append(c, []byte("extra")), n
		}, 1},
		"length over at train": {train, func(c [][]byte, n int64) ([][]byte, int64) { return c, n + 1 }, 1},
	} {
		// tamper rewrites that boundary's ship of worker 0's first
		// incarnation: its chunk frames follow its exports frame, which
		// leads with the seq, and are held until its boundary frame.
		tamper := func() TransportFactory {
			return spawnHook(func(index, k int, tr Transport) Transport {
				if index != 0 || k != 1 {
					return tr
				}
				var seq int64
				var held [][]byte
				return relayed(tr, func(typ frameType, p []byte, forward func(frameType, []byte)) {
					switch {
					case typ == fExports:
						seq = frameSeq(p)
					case typ == fChunk && seq == c.seq:
						held = append(held, bytes.Clone(p))
						return
					case typ == fBoundary && seq == c.seq:
						chunks, n := c.ship(held, shipLen(p))
						for _, ch := range chunks {
							forward(fChunk, ch)
						}
						p = rewriteBoundary(p, n)
					}
					forward(typ, p)
				})
			})
		}

		cfg := base
		replayFailure(&cfg)
		reg := obs.New()
		cfg.Metrics = reg
		cfg.Transport = tamper()
		got := driveSupervisor(t, cfg)
		assertMatchesEngine(t, got, want, name)
		assertSameCheckpoints(t, got.ckpts, clean.ckpts, name)
		if got.restarts != 1 {
			t.Fatalf("%s: %d restarts want 1", name, got.restarts)
		}
		if r := workerCounter(reg, "dtmsvs_coord_replayed_boundaries_total", 0); r != c.wantReplayed {
			t.Fatalf("%s: worker 0 replayed %d boundaries want %d", name, r, c.wantReplayed)
		}

		cfg.MaxRestarts = -1
		cfg.Metrics = nil
		cfg.Transport = tamper()
		_, err := driveSupervisorErr(cfg)
		if !errors.Is(err, ErrWorkerFailed) || !strings.Contains(err.Error(), ErrProtocol.Error()) {
			t.Fatalf("%s without budget: %v", name, err)
		}
	}
}

// TestSupervisorStaleSeqRestarts: after a restart, frames inside the
// replayed range are dropped, but one whose seq lies outside it — older
// than the log — is still a protocol violation that restarts the
// worker, and the next incarnation replays the same log again.
func TestSupervisorStaleSeqRestarts(t *testing.T) {
	const seed = 43
	base := Config{Cluster: replayConfig(seed), Workers: 2}
	want := runEngine(t, replayConfig(seed))
	d := base.Cluster.Defaulted()
	cfg := base
	replayFailure(&cfg)
	reg := obs.New()
	cfg.Metrics = reg
	// Killed at interval 10, worker 0 replays intervals 8 and 9; its
	// second incarnation reports interval 8's records as interval 5's.
	cfg.Faults = []faultinject.ProcFault{{Worker: 0, Interval: 10, Kind: faultinject.ProcKill}}
	cfg.Transport = spawnHook(func(index, k int, tr Transport) Transport {
		if index != 0 || k != 2 {
			return tr
		}
		return relayed(tr, func(typ frameType, p []byte, forward func(frameType, []byte)) {
			if typ == fRecords && frameSeq(p) == intervalSeq(d, 8) {
				p = append([]byte(nil), p...)
				binary.LittleEndian.PutUint64(p, uint64(intervalSeq(d, 5)))
			}
			forward(typ, p)
		})
	})
	got := driveSupervisor(t, cfg)
	assertMatchesEngine(t, got, want, "stale seq")
	if got.restarts != 2 {
		t.Fatalf("%d restarts want 2 (kill, then stale seq)", got.restarts)
	}
	if r := workerCounter(reg, "dtmsvs_coord_replayed_boundaries_total", 0); r != 4 {
		t.Fatalf("worker 0 replayed %d boundaries want 2 + 2", r)
	}
}

// TestSupervisorRestartHelloStripsReplayedFaults: a short hang at a
// logged interval fires without killing its incarnation. When the
// worker is then lost at a checkpoint-only boundary, the restart
// replays that interval — so its hello must no longer schedule the
// hang, or it would fire twice. The checkpoint and the rest of the run
// stay byte-identical.
func TestSupervisorRestartHelloStripsReplayedFaults(t *testing.T) {
	const seed = 47
	base := Config{Cluster: replayConfig(seed), Workers: 2}
	d := base.Cluster.Defaulted()
	run := func(cfg Config) ([]cluster.Record, [][]byte, *Supervisor) {
		t.Helper()
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		ctx := t.Context()
		if err := s.WarmupStep(ctx); err != nil {
			t.Fatal(err)
		}
		if err := s.TrainAndBuild(ctx); err != nil {
			t.Fatal(err)
		}
		var recs []cluster.Record
		var blobs [][][]byte
		for n := 0; n < d.Sim.NumIntervals; n++ {
			r, err := s.StepInterval(ctx, n)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, r...)
			if n == 10 {
				if blobs, err = s.CheckpointBlobs(ctx); err != nil {
					t.Fatal(err)
				}
			}
		}
		return recs, joinBlobs(blobs), s
	}
	wantRecs, wantBlobs, _ := run(base)

	cfg := base
	replayFailure(&cfg)
	cfg.HangDuration = 50 * time.Millisecond // a quarter of the miss deadline
	cfg.Faults = []faultinject.ProcFault{
		{Worker: 0, Interval: 9, Kind: faultinject.ProcHang},
		{Worker: 0, Interval: 13, Kind: faultinject.ProcHang},
	}
	var restartFaults []faultinject.ProcFault
	cfg.Transport = spawnHook(func(index, k int, tr Transport) Transport {
		switch {
		case index == 0 && k == 1:
			return &killingTransport{Transport: tr, at: killPoint{ph: phaseCkpt}}
		case index == 0 && k == 2:
			return writeTap{tr, func(typ frameType, p []byte) {
				var hm helloMsg
				if typ == fHello && json.Unmarshal(checkpoint.NewDec(p).Blob(), &hm) == nil {
					restartFaults = hm.Faults
				}
			}}
		}
		return tr
	})
	gotRecs, gotBlobs, s := run(cfg)
	if !reflect.DeepEqual(gotRecs, wantRecs) {
		t.Fatal("records diverged")
	}
	assertSameCheckpoints(t, gotBlobs, wantBlobs, "checkpoint after interval 10")
	if s.Restarts() != 1 {
		t.Fatalf("%d restarts want 1", s.Restarts())
	}
	if want := cfg.Faults[1:]; !reflect.DeepEqual(restartFaults, want) {
		t.Fatalf("restart hello faults %+v want %+v", restartFaults, want)
	}
}

// TestWorkerRefusesV2Hello: a supervisor speaking protocol 2 — whose
// step frames lack the ship-checkpoint byte — is refused at hello with
// an error frame, before any engine is built.
func TestWorkerRefusesV2Hello(t *testing.T) {
	hb, err := json.Marshal(helloMsg{Proto: 2, Cluster: testClusterConfig(1, 1), Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	var e checkpoint.Enc
	e.Blob(hb)
	e.Blob(nil)
	var out bytes.Buffer
	err = runWorker(bytes.NewReader(appendFrame(nil, fHello, e.Bytes())), &out, nil)
	if err == nil || !strings.Contains(err.Error(), "protocol version 2") {
		t.Fatalf("v2 hello: %v", err)
	}
	typ, payload, _, err := ReadFrame(bufio.NewReader(&out), nil)
	if err != nil || typ != fError {
		t.Fatalf("reply frame %d: %v", typ, err)
	}
	if msg := checkpoint.NewDec(payload).Blob(); !strings.Contains(string(msg), "protocol version 2") {
		t.Fatalf("error frame %q", msg)
	}
}
