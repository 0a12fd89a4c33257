// This file serializes the cluster engine's boundary state: the
// ownership map and handover counters that live on the engine, plus
// each cell's full simulation state via sim's checkpoint sections.
// Cells are written in id order, so the stream layout is independent
// of shard scheduling; the per-cell trace buffers are always empty at
// an interval boundary (StepInterval drains them when merging) and
// never ride in a checkpoint.

package cluster

import (
	"fmt"

	"dtmsvs/internal/checkpoint"
)

// WriteState appends the engine's boundary state to a checkpoint: a
// "cluster" section followed by each cell's sim sections in id order
// (un-owned cells present but empty).
func (e *Engine) WriteState(cw *checkpoint.Writer) error {
	if err := cw.Section("cluster", func(enc *checkpoint.Enc) {
		enc.Ints(e.owner)
		enc.Int(e.handovers)
		enc.Bool(e.trained)
		enc.U32(uint32(len(e.cells)))
		for _, c := range e.cells {
			enc.Bool(c.built)
			enc.Int(c.migratedIn)
			enc.Bool(c.down)
			enc.Int(c.evacuated)
		}
		// The failure policy rides along as a guard: it changes the
		// degraded run's behavior but is a session option, outside the
		// config fingerprint, so resume verifies it explicitly.
		enc.U8(uint8(e.policy))
		enc.Int(e.failures)
		enc.Int(e.revivals)
		enc.Int(e.evacuated)
		enc.Int(e.degradedIntervals)
	}); err != nil {
		return err
	}
	for _, c := range e.cells {
		if err := c.eng.WriteState(cw); err != nil {
			return fmt.Errorf("cell %d: %w", c.id, err)
		}
	}
	return nil
}

// ReadState restores boundary state written by WriteState into a
// freshly constructed engine of the identical configuration and
// partition. Each cell's population is rebuilt from its own checkpoint
// sections, replacing the initial placement construction performed; a
// checkpoint holding twins in a cell this partition does not own is
// rejected.
func (e *Engine) ReadState(cr *checkpoint.Reader) error {
	d, err := cr.Section("cluster")
	if err != nil {
		return err
	}
	owner := d.Ints()
	handovers := d.Int()
	trained := d.Bool()
	nCells := d.U32()
	if derr := d.Err(); derr != nil {
		return derr
	}
	if int(nCells) != len(e.cells) {
		return fmt.Errorf("checkpoint has %d cells, engine has %d: %w", nCells, len(e.cells), checkpoint.ErrCorrupt)
	}
	if len(owner) != len(e.owner) {
		return fmt.Errorf("checkpoint owns %d users, engine has %d: %w", len(owner), len(e.owner), checkpoint.ErrCorrupt)
	}
	for id, c := range owner {
		if c < 0 || c >= len(e.cells) {
			return fmt.Errorf("user %d owned by cell %d of %d: %w", id, c, len(e.cells), checkpoint.ErrCorrupt)
		}
	}
	built := make([]bool, len(e.cells))
	migrated := make([]int, len(e.cells))
	down := make([]bool, len(e.cells))
	cellEvac := make([]int, len(e.cells))
	cellsDown := 0
	for i := range e.cells {
		built[i] = d.Bool()
		migrated[i] = d.Int()
		down[i] = d.Bool()
		cellEvac[i] = d.Int()
		if down[i] {
			cellsDown++
		}
	}
	policy := FailurePolicy(d.U8())
	failures := d.Int()
	revivals := d.Int()
	evacuated := d.Int()
	degraded := d.Int()
	if derr := d.Close(); derr != nil {
		return derr
	}
	if policy != e.policy {
		return fmt.Errorf("checkpoint taken under cell-failure policy %s, session opened with %s: %w",
			policy, e.policy, checkpoint.ErrConfigMismatch)
	}
	for id, c := range owner {
		if down[c] {
			return fmt.Errorf("user %d owned by quarantined cell %d: %w", id, c, checkpoint.ErrCorrupt)
		}
	}
	copy(e.owner, owner)
	e.handovers = handovers
	e.trained = trained
	e.records = e.records[:0]
	e.cellsDown = cellsDown
	e.failures = failures
	e.revivals = revivals
	e.evacuated = evacuated
	e.degradedIntervals = degraded
	e.metCellsDown.Set(float64(cellsDown))
	for i, c := range e.cells {
		c.built = built[i]
		c.migratedIn = migrated[i]
		c.down = down[i]
		c.evacuated = cellEvac[i]
		e.down[i] = down[i]
		if err := c.eng.ReadState(cr); err != nil {
			return fmt.Errorf("cell %d: %w", c.id, err)
		}
	}
	e.local = 0
	for i, c := range e.cells {
		n := c.eng.NumUsers()
		if !e.mask[i] && n != 0 {
			return fmt.Errorf("restore left %d twins in un-owned cell %d: %w", n, i, checkpoint.ErrCorrupt)
		}
		e.local += n
	}
	return nil
}
