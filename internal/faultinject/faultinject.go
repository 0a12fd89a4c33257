// Package faultinject schedules deterministic failures for the chaos
// runs: a cluster coverage cell going dark (CellFault) and a
// distributed worker process misbehaving (ProcFault). A cell plan is
// drawn from its own seed stream and a process fault is placed by
// hand, so a chaotic run replays bit-identically.
package faultinject

import (
	"math/rand"

	"dtmsvs/internal/parallel"
)

// CellFault schedules the failure of one cluster coverage cell: the
// cell goes dark at the FailAt scheduling-interval boundary (its
// twins are evacuated to surviving cells and its edge cache is
// dropped) and, if ReviveAt is set, returns — empty and cold — at
// that later boundary. The zero ReviveAt sentinel is -1 (never).
type CellFault struct {
	// Cell is the coverage cell / base station id to kill.
	Cell int `json:"cell"`
	// FailAt is the 0-based scheduling interval at whose start the
	// cell dies (faults never fire during warm-up).
	FailAt int `json:"failAt"`
	// ReviveAt is the 0-based interval at whose start the cell
	// returns; < 0 means it stays dark.
	ReviveAt int `json:"reviveAt"`
}

// CellPlan derives a deterministic chaos plan from its own seed
// stream: which of cells cells dies, at which
// of intervals boundaries, and whether/when it comes back. Half of
// all seeds schedule a revival, uniformly in the remaining intervals;
// the same (seed, cells, intervals) always yields the same plan, so a
// chaotic run replays bit-identically.
func CellPlan(seed int64, cells, intervals int) CellFault {
	if cells < 1 {
		cells = 1
	}
	if intervals < 1 {
		intervals = 1
	}
	rng := rand.New(parallel.NewStream(seed, 0xFA02))
	f := CellFault{
		Cell:     rng.Intn(cells),
		FailAt:   rng.Intn(intervals),
		ReviveAt: -1,
	}
	if rem := intervals - f.FailAt; rem > 1 && rng.Intn(2) == 0 {
		f.ReviveAt = f.FailAt + 1 + rng.Intn(rem-1)
	}
	return f
}

// ProcFaultKind selects how a distributed worker process misbehaves.
type ProcFaultKind uint8

const (
	// ProcKill terminates the worker abruptly (SIGKILL in process
	// transports, torn pipes in in-process ones) when the scheduled
	// interval's step arrives.
	ProcKill ProcFaultKind = iota
	// ProcHang stalls the worker — heartbeats included — so the
	// supervisor's liveness deadline, not the pipe, detects the loss.
	ProcHang
	// ProcGarbage makes the worker emit a corrupt frame (bad CRC) in
	// place of the interval's records, exercising torn-frame recovery.
	ProcGarbage
)

// String names the fault kind for logs and test output.
func (k ProcFaultKind) String() string {
	switch k {
	case ProcKill:
		return "kill"
	case ProcHang:
		return "hang"
	case ProcGarbage:
		return "garbage"
	}
	return "unknown"
}

// ProcFault schedules one distributed-worker process failure: worker
// Worker misbehaves per Kind when it receives the step for scheduling
// interval Interval. Faults fire once — a worker restarted past the
// scheduled boundary does not re-fire it.
type ProcFault struct {
	// Worker is the worker index to fail.
	Worker int `json:"worker"`
	// Interval is the 0-based scheduling interval whose step triggers
	// the fault (process faults never fire during warm-up or training).
	Interval int `json:"interval"`
	// Kind is the failure mode.
	Kind ProcFaultKind `json:"kind"`
}
