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

// ReadState restores boundary state written by WriteState into a
// freshly constructed engine of the identical configuration and
// partition. It reads the owned cells' sections in id order, hands
// each owned cell the opened twins the checkpoint's owner map assigns
// it, and then decodes the cells concurrently on the pool — each into
// its own disjoint table of opened twins, so no two restores can share
// a twin whatever the sections claim. Afterwards every owned cell must
// hold exactly the twins the owner map assigns it; that, and any
// bookkeeping for an un-owned cell, is checkpoint.ErrCorrupt. A stream
// with sections for other cells than the partition's — a worker blob
// from a build that wrote every cell — fails here or at the reader's
// Finish, never restores.
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
	secs := make([]sim.Sections, len(e.owned))
	for k, ci := range e.owned {
		if secs[k], err = sim.ReadSections(cr); err != nil {
			return fmt.Errorf("cell %d: %w", ci, err)
		}
	}
	if err := e.rehome(owner); err != nil {
		return err
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
	if err := e.sub.Pool.For(len(e.owned), func(k int) error {
		ci := e.owned[k]
		if err := e.cells[ci].eng.Restore(secs[k]); err != nil {
			return fmt.Errorf("cell %d: %w", ci, err)
		}
		return nil
	}); err != nil {
		return err
	}
	return e.checkOwnership()
}

// rehome moves the opened twins of the owned cells to the cells the
// checkpoint's owner map assigns them, so each cell's population is
// the table its restore decodes into. Twins already in their cell stay
// put, and twins the map places outside this partition are dropped.
func (e *Engine) rehome(owner []int) error {
	opened := make([]sim.User, len(owner))
	for _, ci := range e.owned {
		eng := e.cells[ci].eng
		for _, id := range slices.Backward(eng.UserIDs()) {
			if owner[id] != ci {
				opened[id], _ = eng.DetachUser(id)
			}
		}
	}
	for id, mu := range opened {
		if c := owner[id]; mu != (sim.User{}) && e.mask[c] {
			if err := e.cells[c].eng.AttachUser(mu); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkOwnership verifies a restore against the owner map: every owned
// cell holds exactly {id : owner[id] == cell} — populations are id
// sorted and duplicate-free, so agreeing owners and equal counts pin
// the set. It recounts the local twins.
func (e *Engine) checkOwnership() error {
	want := make([]int, len(e.cells))
	for _, c := range e.owner {
		want[c]++
	}
	e.local = 0
	for _, ci := range e.owned {
		ids := e.cells[ci].eng.UserIDs()
		for _, id := range ids {
			if id >= len(e.owner) || e.owner[id] != ci {
				return fmt.Errorf("twin %d restored in cell %d, not where this partition's owner map puts it: %w", id, ci, checkpoint.ErrCorrupt)
			}
		}
		if len(ids) != want[ci] {
			return fmt.Errorf("cell %d restored %d twins, the owner map gives it %d: %w", ci, len(ids), want[ci], checkpoint.ErrCorrupt)
		}
		e.local += len(ids)
	}
	return nil
}
