package coord

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/cluster"
)

// workerBlob runs the unit scenario through a two-worker supervisor
// to interval 2 and returns the checkpoint worker 1 ships there.
func workerBlob(tb testing.TB, cfg cluster.Config) []byte {
	tb.Helper()
	s, err := New(Config{Cluster: cfg, Workers: 2})
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for i := 0; i < cfg.Defaulted().Sim.WarmupIntervals; i++ {
		if err := s.WarmupStep(ctx); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.TrainAndBuild(ctx); err != nil {
		tb.Fatal(err)
	}
	for n := 0; n < 2; n++ {
		if _, err := s.StepInterval(ctx, n); err != nil {
			tb.Fatal(err)
		}
	}
	blobs, err := s.CheckpointBlobs(ctx)
	if err != nil {
		tb.Fatal(err)
	}
	return blobs[1]
}

// FuzzReadWorkerCheckpoint: a worker restores a resume blob exactly as
// runWorker does — a fresh cluster.NewWorker, the worker kind and
// slot fingerprint, ReadState, Finish — from bytes it did not write.
// Any damage must fail typed and never panic, and a restore that
// succeeds must leave a worker that checkpoints again.
func FuzzReadWorkerCheckpoint(f *testing.F) {
	cfg := testClusterConfig(9, 1)
	blob := workerBlob(f, cfg)
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:len(blob)-3])
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	fp, err := WorkerFingerprint(cfg, 1, 2)
	if err != nil {
		f.Fatal(err)
	}
	restore := func(tb testing.TB, data []byte) (*cluster.Worker, error) {
		wk, err := cluster.NewWorker(cfg, 1, 2)
		if err != nil {
			tb.Fatal(err)
		}
		cr, err := checkpoint.NewReader(bytes.NewReader(data), WorkerKind, fp)
		if err == nil {
			err = wk.ReadState(cr)
		}
		if err == nil {
			err = cr.Finish()
		}
		return wk, err
	}
	if _, err := restore(f, blob); err != nil {
		f.Fatalf("the worker's own blob does not restore: %v", err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wk, err := restore(t, data)
		if err != nil {
			if !errors.Is(err, checkpoint.ErrCorrupt) &&
				!errors.Is(err, checkpoint.ErrVersion) &&
				!errors.Is(err, checkpoint.ErrConfigMismatch) {
				t.Fatalf("untyped worker checkpoint rejection: %v", err)
			}
			return
		}
		if n := wk.NumUsers(); n > cfg.Sim.NumUsers {
			t.Fatalf("restored %d twins for %d users", n, cfg.Sim.NumUsers)
		}
		cw := checkpoint.NewWriter(io.Discard, WorkerKind, fp)
		if err := wk.WriteState(cw); err != nil {
			t.Fatalf("restored worker cannot checkpoint: %v", err)
		}
	})
}
