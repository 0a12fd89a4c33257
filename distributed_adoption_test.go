package dtmsvs

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"
	"time"
)

// adoptionOptions forbids restarts and turns adoption on, so the first
// loss of a worker is its adoption, and schedules that loss.
func adoptionOptions(worker, interval int) []SessionOption {
	return []SessionOption{
		WithWorkerRestartPolicy(-1, 0),
		WithWorkerAdoption(),
		WithProcFaults(0, ProcFault{Worker: worker, Interval: interval, Kind: ProcKill}),
	}
}

// TestDistributedAdoptionMatrix: an unrestartable worker killed at an
// interval boundary — torn pipes in-process, a real SIGKILL of a child
// process whose adopted incarnation then runs in-process — leaves the
// stream and the final session checkpoint byte-identical to the clean
// run, with exactly one adoption. The default run kills one interval
// per transport; DTMSVS_CHAOS=1 sweeps every interval and both workers.
func TestDistributedAdoptionMatrix(t *testing.T) {
	const seed = 71
	cfg := distTestConfig(seed, 1)
	_, cleanStream, cleanCkpt := driveDist(t, cfg, 2)
	victims, intervals := []int{1}, []int{1}
	if os.Getenv("DTMSVS_CHAOS") != "" {
		victims, intervals = []int{0, 1}, []int{0, 1, 2, 3}
	}
	transports := map[string][]SessionOption{
		// The in-process liveness deadline can be tight; SIGKILL is seen
		// as pipe EOF, and a race-instrumented child's cold start must
		// not be misread as death, so process workers keep the default.
		"inprocess": {WithWorkerHeartbeat(10*time.Millisecond, 5)},
		"process":   {WithWorkerProcesses()},
	}
	for name, transport := range transports {
		for _, victim := range victims {
			for _, at := range intervals {
				t.Run(fmt.Sprintf("%s/worker=%d/interval=%d", name, victim, at), func(t *testing.T) {
					s, stream, ckpt := driveDist(t, cfg, 2, append(adoptionOptions(victim, at), transport...)...)
					if stream != cleanStream {
						t.Fatal("adopted run NDJSON diverged")
					}
					if !bytes.Equal(ckpt, cleanCkpt) {
						t.Fatal("adopted run final checkpoint diverged")
					}
					if s.WorkerAdoptions() != 1 || s.WorkerRestarts() != 1 {
						t.Fatalf("%d adoptions, %d restarts, want 1 and 1", s.WorkerAdoptions(), s.WorkerRestarts())
					}
				})
			}
		}
	}
}

// TestDistributedAdoptionResume: a session checkpoint taken after an
// adoption is an ordinary one — ResumeDistributed (fresh supervisor,
// fresh workers, nothing adopted) finishes the run with the clean
// run's stream, final checkpoint and cell statistics.
func TestDistributedAdoptionResume(t *testing.T) {
	const seed = 73
	cfg := distTestConfig(seed, 2)
	full, fullStream, fullCkpt := driveDist(t, cfg, 2)

	var buf bytes.Buffer
	opts := append(adoptionOptions(0, 1), WithWorkerHeartbeat(10*time.Millisecond, 5), WithSink(NewNDJSONSink(&buf)))
	a, err := OpenDistributed(cfg, 2, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, serr := a.Step(context.Background()); serr != nil {
			a.Close()
			t.Fatal(serr)
		}
	}
	if a.WorkerAdoptions() != 1 {
		t.Fatalf("adoptions %d want 1", a.WorkerAdoptions())
	}
	var mid bytes.Buffer
	if err := a.Checkpoint(&mid); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := ResumeDistributed(cfg, 2, bytes.NewReader(mid.Bytes()), WithSink(NewNDJSONSink(&buf)))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for !b.Done() {
		if _, serr := b.Step(context.Background()); serr != nil {
			t.Fatal(serr)
		}
	}
	var final bytes.Buffer
	if err := b.Checkpoint(&final); err != nil {
		t.Fatal(err)
	}
	if buf.String() != fullStream {
		t.Fatal("stream resumed after adoption diverged from the clean run")
	}
	if !bytes.Equal(final.Bytes(), fullCkpt) {
		t.Fatal("final checkpoint resumed after adoption diverged")
	}
	if b.WorkerAdoptions() != 0 || b.WorkerRestarts() != 0 {
		t.Fatalf("resumed session recovered: %d adoptions, %d restarts", b.WorkerAdoptions(), b.WorkerRestarts())
	}
	got, want := b.Trace(), full.Trace()
	if len(got.Cells) != len(want.Cells) {
		t.Fatalf("%d cells, want %d", len(got.Cells), len(want.Cells))
	}
	for i := range got.Cells {
		if got.Cells[i] != want.Cells[i] {
			t.Fatalf("cell %d stats diverged: %+v vs %+v", i, got.Cells[i], want.Cells[i])
		}
	}
}
