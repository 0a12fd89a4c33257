package coord

import (
	"bytes"
	"context"
	"io"
	"sync"
	"testing"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/cluster"
)

// killPoint names the supervisor frame at which a worker's first
// incarnation dies: the step frame of the given phase (and interval),
// or — imports set — the imports frame of that step, which the
// supervisor only sends once every worker's exports are routed. The
// worker dies right after reading the frame, or — unread set — with
// the frame still unread on a torn pipe.
type killPoint struct {
	ph      phase
	n       int
	imports bool
	unread  bool
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
}

func (t *killingTransport) Writer() io.Writer { return t }

func (t *killingTransport) Write(b []byte) (int, error) {
	// conn.send hands over one whole frame per Write: length, type, payload.
	typ, payload := frameType(b[4]), b[5:len(b)-4]
	if typ == fStep {
		d := checkpoint.NewDec(payload)
		ph, step := phase(d.U8()), int(d.I64())
		t.inStep = ph == t.at.ph && (ph != phaseInterval || step == t.at.n)
	}
	on := fStep
	if t.at.imports {
		on = fImports
	}
	hit := t.inStep && typ == on
	if hit && t.at.unread {
		t.Kill()
	}
	n, err := t.Transport.Writer().Write(b)
	if hit && !t.at.unread {
		t.Kill()
	}
	return n, err
}

// killFirst wraps the first incarnation of worker idx; every other
// spawn, the restarted incarnation included, gets a plain in-process
// transport.
func killFirst(idx int, at killPoint) TransportFactory {
	inner := InProcess()
	var once sync.Once
	return func(index int) (Transport, error) {
		t, err := inner(index)
		if err == nil && index == idx {
			once.Do(func() { t = &killingTransport{Transport: t, at: at} })
		}
		return t, err
	}
}

// TestSupervisorRestartMatrix lands the loss of a worker in every
// phase a boundary has — warm-up, train, an interval before its
// imports are routed, after that with the imports unread and read, and
// the checkpoint-only boundary — on each worker in turn, and requires
// what recovery promises under the default budget: exactly one
// restart, and records, stats and final checkpoints byte-identical to
// the clean run.
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
