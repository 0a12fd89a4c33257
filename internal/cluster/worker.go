// This file is the per-process half of the distributed cluster: a
// Worker is the cluster engine over one contiguous block of coverage
// cells, exchanging boundary handovers with its peers through the
// internal/coord supervisor instead of running the pass on its own.
//
// Determinism contract: every partition slot builds only the cells it
// owns, each exactly as the single-process engine builds it (a cell
// draws only from the shared substrate and its own derived streams),
// places the whole population from per-user streams — every user's
// preference, profile draw, mobility model and initial station, so the
// owner map covers all of them — and builds whole (link, twin,
// calibration filters) and attaches only the users that start in its
// own cells; a worker that restarts or resumes places no one, and
// builds only the users its checkpoint's owner map puts in its cells,
// as it decodes them. The handover pass (handover.go) is the engine's
// own, split at the point where the moves crossing workers are
// exchanged; a worker decodes each import into the storage of a user
// it exported at the previous boundary, which changes no byte of any
// user. Its checkpoint carries sim sections for its own cells only.
package cluster

import (
	"context"
	"fmt"
)

// WorkerForCell maps a cell id to the worker owning it: contiguous
// blocks of cells.
func WorkerForCell(cell, numCells, workers int) int {
	return cell * workers / numCells
}

// Worker is an Engine that owns one block of a partition. Its
// WarmupStep and StepInterval stop before the handover pass: the
// caller runs PlanHandovers, routes the moves that carry a twin to the
// workers owning their destination cells, and hands each worker its
// own plan plus its imports through ApplyHandovers.
type Worker struct{ *Engine }

// NewWorker constructs worker index of count over cfg.
func NewWorker(cfg Config, index, count int) (*Worker, error) {
	w, err := NewWorkerUnplaced(cfg, index, count)
	if err != nil {
		return nil, err
	}
	if err := w.place(); err != nil {
		return nil, err
	}
	return w, nil
}

// NewWorkerUnplaced is NewUnplaced for worker index of count: the
// worker a restarted or resumed worker process restores its checkpoint
// into.
func NewWorkerUnplaced(cfg Config, index, count int) (*Worker, error) {
	d := cfg.Defaulted()
	if len(d.Faults) > 0 {
		return nil, fmt.Errorf("cell fault injection inside distributed workers is not supported (inject process faults instead): %w", ErrConfig)
	}
	if count < 1 || count > d.Sim.NumBS {
		return nil, fmt.Errorf("%d workers for %d base stations: %w", count, d.Sim.NumBS, ErrConfig)
	}
	if index < 0 || index >= count {
		return nil, fmt.Errorf("worker index %d of %d: %w", index, count, ErrConfig)
	}
	e, err := newPartition(cfg, index, count, false)
	if err != nil {
		return nil, err
	}
	e.SetRetainRecords(false)
	return &Worker{e}, nil
}

// WarmupStep runs one warm-up interval over the owned cells. The
// boundary handover exchange (Plan/ApplyHandovers) follows it.
func (w *Worker) WarmupStep(ctx context.Context) error { return w.warmupCells(ctx) }

// StepInterval runs one reservation interval over the owned cells and
// returns the interval's records in (cell, group) order — the owned
// slice of the single-process merged ordering. The boundary handover
// exchange follows it.
func (w *Worker) StepInterval(ctx context.Context, interval int) ([]Record, error) {
	return w.stepCells(ctx, interval)
}
