// This file is the cluster engine's failure model: deterministic
// cell-failure injection (a faultinject.CellFault schedule in the
// config), quarantine, the twin evacuation pass that generalizes the
// handover pass to a whole dying cell, and revival. The schedule is
// the whole policy: a firing fault always quarantines its cell and
// evacuates it, and the cell returns at ReviveAt when that is not
// negative. Every transition happens at a scheduling-interval boundary
// on the stepping goroutine, so degraded runs are bit-identical for
// any Parallelism or kernel dispatch — failure handling is part of the
// deterministic trace, not an asynchronous event.

package cluster

import (
	"errors"
	"fmt"

	"dtmsvs/internal/channel"
	"dtmsvs/internal/sim"
)

// ErrCellFailure classifies every injected-failure outcome: an
// evacuation with nowhere left to go (all cells down) and a broken
// quarantine invariant. Match with errors.Is.
var ErrCellFailure = errors.New("cluster: cell failure")

// CellsDown reports the number of currently quarantined cells.
func (e *Engine) CellsDown() int { return e.cellsDown }

// EvacuatedTwins reports the total twins evacuated from failed cells
// so far.
func (e *Engine) EvacuatedTwins() int { return e.evacuated }

// applyFaults fires the configured cell faults scheduled for this
// boundary: revivals first (a plan may hand coverage back before
// another cell goes dark at the same boundary), then failures.
func (e *Engine) applyFaults(interval int) error {
	for _, f := range e.faults {
		if f.ReviveAt == interval && e.cells[f.Cell].down {
			e.reviveCell(f.Cell)
		}
	}
	for _, f := range e.faults {
		if f.FailAt != interval || e.cells[f.Cell].down {
			continue
		}
		if err := e.failCell(f.Cell, interval); err != nil {
			return err
		}
	}
	return nil
}

// failCell quarantines one cell: marks it (and its station) down,
// drops its edge cache — the node's contents are gone, though its
// hit/miss history still counts, those lookups were really served —
// and evacuates its twins. Degrading the last surviving cell is an
// error: the run has no coverage left.
func (e *Engine) failCell(id, interval int) error {
	c := e.cells[id]
	c.down = true
	e.down[id] = true
	e.cellsDown++
	e.failures++
	e.metFailures.Inc()
	e.metCellsDown.Set(float64(e.cellsDown))
	c.server.Cache().Drop()
	if e.cellsDown >= len(e.cells) {
		return fmt.Errorf("all %d cells down at interval %d: %w", len(e.cells), interval, ErrCellFailure)
	}
	return e.evacuate(id)
}

// reviveCell returns a quarantined cell to service. It comes back
// empty with a cold cache (its pipeline weights survived quarantine
// untouched); users flow back through the ordinary handover pass as
// their links rediscover the station.
func (e *Engine) reviveCell(id int) {
	c := e.cells[id]
	c.down = false
	e.down[id] = false
	e.cellsDown--
	e.revivals++
	e.metRevivals.Inc()
	e.metCellsDown.Set(float64(e.cellsDown))
}

// evacuate is the twin evacuation pass — the handover pass
// generalized to a dying cell: every twin stranded on the failed cell
// (UDT history, calibration EWMAs and private random stream intact) is
// routed, in global user-id order, to the cell of the nearest
// surviving base station, and the moves are applied as one relocation:
// each receiving cell picks its arrivals' groups by nearest code-space
// centroid in one batch and takes them in one splice. The pass ends
// with the same conservation and late-training checks the handover
// pass runs, so an evacuation can never lose or duplicate a twin.
func (e *Engine) evacuate(failed int) error {
	t0 := e.metEvacuation.Start()
	defer e.metEvacuation.ObserveSince(t0)
	var (
		moves []Handover
		users []sim.User
	)
	for id := range e.owner {
		if e.owner[id] != failed {
			continue
		}
		mu, ok := e.cells[failed].eng.Member(id)
		if !ok {
			return fmt.Errorf("user %d not evacuable from cell %d: %w", id, failed, ErrCellFailure)
		}
		bs, err := channel.NearestAliveBS(e.sub.Stations, e.down, mu.Position())
		if err != nil {
			return fmt.Errorf("evacuating user %d: %w", id, err)
		}
		moves = append(moves, Handover{ID: id, From: failed, To: e.cellOf[bs.ID]})
		users = append(users, mu)
	}
	if err := e.relocate(moves, users); err != nil {
		return err
	}
	moved := len(moves)
	e.cells[failed].evacuated += moved
	e.evacuated += moved
	e.metEvacuated.Add(uint64(moved))
	if err := e.checkConservation("evacuation"); err != nil {
		return err
	}
	return e.lateTrain()
}
