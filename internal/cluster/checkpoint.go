// This file serializes the cluster engine's boundary state: the
// ownership map and handover counters that live on the engine, plus
// each owned cell's full simulation state via sim's checkpoint
// sections. The cells are encoded concurrently on the pool, each into
// an encoder it keeps between checkpoints (or, for a writer that
// builds in place, one after another into its destination), and
// written in id order, so the stream layout is independent of the
// pool's width; the per-cell trace buffers are always empty at an
// interval boundary (StepInterval drains them when merging) and never
// ride in a checkpoint.

package cluster

import (
	"fmt"
	"slices"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/sim"
)

// noCell is the bookkeeping the "cluster" section carries for a cell
// outside the partition: none.
var noCell cellState

// WriteState appends the engine's boundary state to a checkpoint: a
// "cluster" section, whose per-cell bookkeeping spans every cell (zero
// for un-owned ones), followed by each owned cell's sim sections in id
// order. Every owned cell frames its sections at once, on the pool,
// into the encoder the cell keeps — the twins are most of the bytes,
// and a cell encodes only its own — and the framed bytes are then
// written to cw cell by cell. A cell whose encoding fails fails the
// call with the lowest such cell's error, and nothing of the cells
// reaches cw.
//
// A writer that builds in place — a distributed worker's, into the
// boundary frame it keeps — gets the cells framed into its destination
// one after another instead: there the stream already lives in memory
// its caller keeps, the other workers encode theirs at the same time,
// and per-cell encoders would only hold a second copy of the state.
// sim judges a cell's room by that cell's users alone, so a destination
// that starts small (a worker's first ship) would regrow once per cell:
// the first cell's bytes per twin judge the room for the rest instead,
// and a destination short of it grows once, with an eighth to spare
// (so a later ship of about the same size fits what the first left).
func (e *Engine) WriteState(cw *checkpoint.Writer) error {
	if err := cw.Section("cluster", func(enc *checkpoint.Enc) {
		enc.Ints(e.owner)
		enc.Int(e.handovers)
		enc.Bool(e.trained)
		enc.U32(uint32(len(e.cells)))
		for _, c := range e.cells {
			if c == nil {
				c = &noCell
			}
			enc.Bool(c.built)
			enc.Int(c.migratedIn)
			enc.Bool(c.down)
			enc.Int(c.evacuated)
		}
		enc.Int(e.failures)
		enc.Int(e.revivals)
		enc.Int(e.evacuated)
		enc.Int(e.degradedIntervals)
	}); err != nil {
		return err
	}
	if dst := cw.InPlace(); dst != nil {
		for k, ci := range e.owned {
			eng := e.cells[ci].eng
			at := len(dst.Bytes())
			if err := eng.WriteState(cw); err != nil {
				return fmt.Errorf("cell %d: %w", ci, err)
			}
			if n := eng.NumUsers(); k == 0 && n > 0 {
				rest := (e.local - n) * (len(dst.Bytes()) - at) / n
				if b := dst.Bytes(); cap(b)-len(b) < rest {
					dst.Grow(rest + rest/8)
				}
			}
		}
		return nil
	}
	if err := e.sub.Pool.For(len(e.owned), func(k int) error {
		c := e.cells[e.owned[k]]
		c.ckpt.Reset()
		if err := c.eng.WriteState(checkpoint.NewSectionWriter(&c.ckpt)); err != nil {
			return fmt.Errorf("cell %d: %w", c.id, err)
		}
		return nil
	}); err != nil {
		return err
	}
	for _, ci := range e.owned {
		if err := cw.WriteSections(e.cells[ci].ckpt.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// ReadState restores boundary state written by WriteState into an
// engine of the identical configuration and partition: one an Unplaced
// constructor built, or one whose population the checkpoint's
// replaces. It reads and CRC-checks the "cluster" section and every
// owned cell's sections, in id order, before it builds anything; then
// it decodes the cells concurrently on the pool, largest first, each
// given the ids the checkpoint's owner map assigns it
// (sim.Simulation.Restore). The map is as long as NumUsers, so no
// allocation is sized by a length the input claims. A cell that lists
// any other twins, and bookkeeping for an un-owned cell, is
// checkpoint.ErrCorrupt; a stream with sections for other cells than
// the partition's — a worker blob from a build that wrote every cell —
// fails here or at the reader's Finish.
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
		if e.cells[i] == nil && (built[i] || migrated[i] != 0 || down[i] || cellEvac[i] != 0) {
			return fmt.Errorf("cell %d outside this partition carries state: %w", i, checkpoint.ErrCorrupt)
		}
	}
	failures := d.Int()
	revivals := d.Int()
	evacuated := d.Int()
	degraded := d.Int()
	if derr := d.Close(); derr != nil {
		return derr
	}
	for id, c := range owner {
		if down[c] {
			return fmt.Errorf("user %d owned by quarantined cell %d: %w", id, c, checkpoint.ErrCorrupt)
		}
	}
	secs := make([]sim.Sections, len(e.cells))
	for _, ci := range e.owned {
		if secs[ci], err = sim.ReadSections(cr); err != nil {
			return fmt.Errorf("cell %d: %w", ci, err)
		}
	}
	// Each owned cell's ids, ascending.
	n := make([]int, len(e.cells))
	for _, c := range owner {
		n[c]++
	}
	ids := make([][]int, len(e.cells))
	e.local = 0
	for _, ci := range e.owned {
		ids[ci] = make([]int, 0, n[ci])
		e.local += n[ci]
	}
	for id, c := range owner {
		if e.mask[c] {
			ids[c] = append(ids[c], id)
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
	copy(e.down, down)
	for _, ci := range e.owned {
		c := e.cells[ci]
		c.built = built[ci]
		c.migratedIn = migrated[ci]
		c.down = down[ci]
		c.evacuated = cellEvac[ci]
	}
	// The largest cells restore first, so the pool's last task is a
	// small one.
	order := slices.Clone(e.owned)
	slices.SortStableFunc(order, func(a, b int) int { return len(ids[b]) - len(ids[a]) })
	return e.sub.Pool.For(len(order), func(k int) error {
		ci := order[k]
		if err := e.cells[ci].eng.Restore(secs[ci], ids[ci]); err != nil {
			return fmt.Errorf("cell %d: %w", ci, err)
		}
		return nil
	})
}
