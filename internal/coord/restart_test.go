package coord

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"sync/atomic"
	"testing"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/cluster"
)

// killPoint names the supervisor frame at which a worker's first
// incarnation dies: the step frame of the given phase (and interval),
// or — imports set — the imports frame of that step, which the
// supervisor only sends once every worker's exports are routed. The
// worker dies right after reading the frame, or — unread set — with
// the frame still unread on a torn pipe. With acked set the worker
// instead dies once the supervisor has read its boundary frame of the
// step, and the other workers' imports of that step are held until it
// has been restarted, so the step is still in flight when it dies.
type killPoint struct {
	ph      phase
	n       int
	imports bool
	unread  bool
	acked   bool
}

// killingTransport forwards the supervisor's frames to an in-process
// worker and tears the worker down at its kill point. A frame that
// went through has been read (the pipe is synchronous), so the worker
// dies somewhere inside the work it asked for — for an imports frame
// of this tiny scenario, possibly only after acking the boundary.
type killingTransport struct {
	Transport
	at     killPoint
	inStep bool
	// seq is the kill point's step seq once its step frame went out,
	// and pending the worker's bytes of a frame not yet read whole.
	seq      atomic.Int64
	pending  []byte
	killNext bool
}

// stepFrame reports whether frame b is a step frame and, if so,
// whether it runs the kill point's step, and its seq. conn.send hands
// over one whole frame per Write: length, type, payload, CRC.
func (at killPoint) stepFrame(b []byte) (step, hit bool, seq int64) {
	if frameType(b[4]) != fStep {
		return false, false, 0
	}
	d := checkpoint.NewDec(b[5 : len(b)-4])
	ph, n, seq := phase(d.U8()), int(d.I64()), d.I64()
	return true, ph == at.ph && (ph != phaseInterval || n == at.n), seq
}

func (t *killingTransport) Writer() io.Writer { return t }
func (t *killingTransport) Reader() io.Reader { return t }

func (t *killingTransport) Write(b []byte) (int, error) {
	typ := frameType(b[4])
	if step, hit, seq := t.at.stepFrame(b); step {
		t.inStep = hit
		if hit {
			t.seq.Store(seq)
		}
	}
	on := fStep
	if t.at.imports {
		on = fImports
	}
	hit := t.inStep && typ == on && !t.at.acked
	if hit && t.at.unread {
		t.Kill()
	}
	n, err := t.Transport.Writer().Write(b)
	if hit && !t.at.unread {
		t.Kill()
	}
	return n, err
}

// Read passes the worker's frames to the supervisor's pump. For an
// acked kill point it follows them, and once the boundary frame of the
// kill point's step has gone through whole, the next Read kills the
// worker: the pump asks for more only after handing that frame on.
func (t *killingTransport) Read(p []byte) (int, error) {
	if t.killNext {
		t.Kill()
	}
	n, err := t.Transport.Reader().Read(p)
	if !t.at.acked {
		return n, err
	}
	t.pending = append(t.pending, p[:n]...)
	for len(t.pending) >= 4 {
		size := 4 + int(binary.LittleEndian.Uint32(t.pending)) + 4
		if len(t.pending) < size {
			break
		}
		if frameType(t.pending[4]) == fBoundary && checkpoint.NewDec(t.pending[5:size-4]).I64() == t.seq.Load() {
			t.killNext = true
		}
		t.pending = t.pending[size:]
	}
	return n, err
}

// holdingTransport holds a worker's imports frame of the acked kill
// point's step until the victim has been restarted, so that this
// worker's boundary cannot complete the step before the victim dies.
type holdingTransport struct {
	Transport
	at     killPoint
	until  <-chan struct{}
	inStep bool
}

func (t *holdingTransport) Writer() io.Writer { return t }

func (t *holdingTransport) Write(b []byte) (int, error) {
	if step, hit, _ := t.at.stepFrame(b); step {
		t.inStep = hit
	}
	if t.inStep && frameType(b[4]) == fImports {
		select {
		case <-t.until:
		case <-t.Done():
		}
	}
	return t.Transport.Writer().Write(b)
}

// killFirst wraps the first incarnation of worker idx; every other
// spawn, the restarted incarnation included, gets a plain in-process
// transport, except that for an acked kill point the other workers'
// transports hold their imports until worker idx is spawned again.
func killFirst(idx int, at killPoint) TransportFactory {
	inner := InProcess()
	var spawns int
	restarted := make(chan struct{})
	return func(index int) (Transport, error) {
		t, err := inner(index)
		if err != nil {
			return t, err
		}
		switch {
		case index == idx:
			spawns++
			if spawns == 1 {
				t = &killingTransport{Transport: t, at: at}
			} else if spawns == 2 {
				close(restarted)
			}
		case at.acked:
			t = &holdingTransport{Transport: t, at: at, until: restarted}
		}
		return t, err
	}
}

// TestSupervisorRestartMatrix lands the loss of a worker in every
// phase a boundary has — warm-up, train, an interval before its
// imports are routed, after that with the imports unread and read, and
// the checkpoint-only boundary — and in the boundary after a ship
// (train ships, so interval 0), where the supervisor first encodes an
// imports frame over a spare and the worker's plan first reuses its
// twin arena, dying once it has read those imports. Each loss lands on
// each worker in turn, and the test requires what recovery promises
// under the default budget: exactly one restart, and records, stats
// and final checkpoints byte-identical to the clean run.
func TestSupervisorRestartMatrix(t *testing.T) {
	const seed = 13
	base := Config{Cluster: testClusterConfig(seed, 1), Workers: 2}
	clean := driveSupervisor(t, base)
	want := runEngine(t, testClusterConfig(seed, 1))
	assertMatchesEngine(t, clean, want, "clean")
	for name, at := range map[string]killPoint{
		"warmup":                  {ph: phaseWarmup},
		"train":                   {ph: phaseTrain},
		"interval-before-imports": {ph: phaseInterval, n: 1},
		"interval-imports-unread": {ph: phaseInterval, n: 2, imports: true, unread: true},
		"interval-imports-read":   {ph: phaseInterval, n: 2, imports: true},
		"interval-acked":          {ph: phaseInterval, n: 2, acked: true},
		"interval-after-ship":     {ph: phaseInterval, n: 0, imports: true},
		"checkpoint-only":         {ph: phaseCkpt},
	} {
		for victim := 0; victim < base.Workers; victim++ {
			cfg := base
			fastFailure(&cfg)
			cfg.Transport = killFirst(victim, at)
			got, err := driveSupervisorErr(cfg)
			if err != nil {
				t.Fatalf("%s worker %d: %v", name, victim, err)
			}
			label := name + " worker " + itoa(victim)
			assertMatchesEngine(t, got, want, label)
			if got.restarts != 1 {
				t.Fatalf("%s: %d restarts, want 1", label, got.restarts)
			}
			for i := range got.ckpts {
				if !bytes.Equal(got.ckpts[i], clean.ckpts[i]) {
					t.Fatalf("%s: worker %d final checkpoint diverged", label, i)
				}
			}
		}
	}
}

// TestSupervisorRestartResume: checkpoint blobs taken after a restart
// seed a fresh supervisor that finishes the run byte-for-byte — a
// restarted worker's acked state is an ordinary worker checkpoint.
func TestSupervisorRestartResume(t *testing.T) {
	const seed = 41
	cfg := Config{Cluster: testClusterConfig(seed, 1), Workers: 2}
	full := driveSupervisor(t, cfg)
	d := cfg.Cluster.Defaulted()

	restarting := cfg
	fastFailure(&restarting)
	restarting.Transport = killFirst(0, killPoint{ph: phaseInterval, n: 0})
	ctx := context.Background()
	a, err := New(restarting)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < d.Sim.WarmupIntervals; i++ {
		if err := a.WarmupStep(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.TrainAndBuild(ctx); err != nil {
		t.Fatal(err)
	}
	var recs []cluster.Record
	for n := 0; n < 2; n++ {
		r, err := a.StepInterval(ctx, n)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r...)
	}
	if a.Restarts() != 1 {
		t.Fatalf("restarts %d want 1", a.Restarts())
	}
	blobs, err := a.CheckpointBlobs(ctx)
	if err != nil {
		t.Fatal(err)
	}

	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.SetResume(blobs); err != nil {
		t.Fatal(err)
	}
	for n := 2; n < d.Sim.NumIntervals; n++ {
		r, err := b.StepInterval(ctx, n)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r...)
	}
	got := &supRun{records: recs, handovers: b.Handovers(), churned: b.Churned()}
	if got.cells, got.hits, got.misses, err = b.Stats(); err != nil {
		t.Fatal(err)
	}
	want := runEngine(t, testClusterConfig(seed, 1))
	assertMatchesEngine(t, got, want, "resumed after a restart")
	final, err := b.CheckpointBlobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range final {
		if !bytes.Equal(final[i], full.ckpts[i]) {
			t.Fatalf("worker %d final checkpoint diverged", i)
		}
	}
}
