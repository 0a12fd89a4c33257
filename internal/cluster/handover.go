// This file is the twin-handover pass — the only one: a plan over the
// owned twins in global user-id order, then an apply of every move
// touching this partition. The single-process engine runs the two back
// to back (migrate); partition workers exchange the moves that cross
// them through internal/coord between the two calls.
//
// Determinism: sim keeps each cell's population sorted by global user
// id and apply runs in ascending global user-id order, so every owned
// cell sees exactly the attach/detach subsequence it sees when one
// engine owns all cells — per-cell state, and therefore the merged
// trace, is bit-identical for any partition.

package cluster

import (
	"fmt"
	"sort"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/sim"
)

// Handover is one boundary twin move. Twin carries the user's full
// mutable state (the sim per-user checkpoint encoding) when the move
// leaves the planning partition; it is nil for moves both of whose
// endpoints the partition owns, where the twin moves by pointer.
type Handover struct {
	ID   int
	From int
	To   int
	Twin []byte
}

// PlanHandovers scans the owned twins in global id order and returns
// every pending move out of an owned cell: each user whose link now
// serves a base station outside its cell. Moves leaving the partition
// carry the twin's wire encoding, captured before any mutation; engine
// state is untouched until ApplyHandovers. The returned slice is the
// engine's own buffer, valid until the next PlanHandovers.
func (e *Engine) PlanHandovers() ([]Handover, error) {
	plan := e.plan[:0]
	var enc checkpoint.Enc
	for id, from := range e.owner {
		if !e.mask[from] {
			continue
		}
		bs := e.cells[from].eng.ServingBSOf(id)
		if bs < 0 {
			return nil, fmt.Errorf("user %d missing from cell %d: %w", id, from, ErrConfig)
		}
		if bs == from {
			continue
		}
		h := Handover{ID: id, From: from, To: bs}
		if !e.mask[bs] {
			enc.Reset()
			if err := e.cells[from].eng.EncodeUser(&enc, id); err != nil {
				return nil, err
			}
			h.Twin = append([]byte(nil), enc.Bytes()...)
		}
		plan = append(plan, h)
	}
	e.plan = plan
	return plan, nil
}

// arrival is one move's twin as the apply loop attaches it: the handle
// (the decoded import, or the owned twin still in its source cell) and
// the destination group the pre-pass chose for it (-1: none applies,
// join the smallest group at attach time).
type arrival struct {
	user  sim.User
	group int
}

// ApplyHandovers applies one boundary's moves touching this partition
// — its own plan plus the imports routed from its peers — in ascending
// global user-id order: each twin is detached (UDT, calibration state
// and random stream intact) and attached to the new station's cell.
// Every move is checked, and every import decoded, before the first
// twin moves, so a rejected batch leaves the engine untouched. A
// pre-pass then picks every incoming twin's destination group
// (sim.NearestGroup: one CNN encode and a nearest-centroid search)
// concurrently, one pool task per destination cell, since the choice
// reads only the twin and that cell's encoder and centroids, none of
// which the pass changes; the sequential attach loop consumes the
// choices. The pass ends by verifying twin conservation and
// late-training owned cells that just gained their first users.
func (e *Engine) ApplyHandovers(moves []Handover) error {
	// The engine's own plan is already id-ordered; only a batch merged
	// with imports needs the private sorted copy.
	for i := 1; i < len(moves); i++ {
		if moves[i].ID < moves[i-1].ID {
			moves = append([]Handover(nil), moves...)
			sort.Slice(moves, func(i, j int) bool { return moves[i].ID < moves[j].ID })
			break
		}
	}
	arrivals := e.arrivals[:0]
	for i, h := range moves {
		switch {
		case h.ID < 0 || h.ID >= len(e.owner):
			return fmt.Errorf("handover of unknown user %d: %w", h.ID, ErrConfig)
		case i > 0 && moves[i-1].ID == h.ID:
			return fmt.Errorf("user %d handed over twice at one boundary: %w", h.ID, ErrConfig)
		case h.To < 0 || h.To >= len(e.cells) || h.From < 0 || h.From >= len(e.cells) || h.From == h.To:
			return fmt.Errorf("handover of user %d between cells %d and %d: %w", h.ID, h.From, h.To, ErrConfig)
		case !e.mask[h.From] && !e.mask[h.To]:
			return fmt.Errorf("handover of user %d (%d→%d) owns neither endpoint: %w", h.ID, h.From, h.To, ErrConfig)
		case e.mask[h.To] && e.cells[h.To].down:
			// Links route around quarantined stations at every tick, so
			// a handover into a dark cell means the quarantine mask and
			// the link layer disagree — stop before the twin is lost.
			return fmt.Errorf("user %d handed over to quarantined cell %d: %w", h.ID, h.To, ErrCellFailure)
		case e.mask[h.From] && e.owner[h.ID] != h.From:
			return fmt.Errorf("user %d not detachable from cell %d: %w", h.ID, h.From, ErrConfig)
		case e.mask[h.From]:
			mu, ok := e.cells[h.From].eng.Member(h.ID)
			if !ok {
				return fmt.Errorf("user %d not detachable from cell %d: %w", h.ID, h.From, ErrConfig)
			}
			arrivals = append(arrivals, arrival{user: mu, group: -1})
			continue
		case e.mask[e.owner[h.ID]]:
			return fmt.Errorf("import of user %d, already in cell %d: %w", h.ID, e.owner[h.ID], ErrConfig)
		case len(h.Twin) == 0:
			return fmt.Errorf("import of user %d into cell %d carries no twin: %w", h.ID, h.To, ErrConfig)
		}
		d := checkpoint.NewDec(h.Twin)
		mu, err := e.cells[h.To].eng.DecodeUser(d)
		if err == nil {
			err = d.Close()
		}
		if err != nil {
			return fmt.Errorf("import user %d: %w", h.ID, err)
		}
		if mu.ID() != h.ID {
			return fmt.Errorf("import of user %d decoded twin %d: %w", h.ID, mu.ID(), ErrConfig)
		}
		arrivals = append(arrivals, arrival{user: mu, group: -1})
	}
	e.arrivals = arrivals
	e.pickGroups(moves, arrivals)
	for i, h := range moves {
		if e.mask[h.From] {
			e.handovers++
			e.metHandovers.Inc()
		}
		if err := e.move(h, arrivals[i]); err != nil {
			return err
		}
	}
	clear(arrivals) // hold no twin past the pass
	if err := e.checkConservation("handover"); err != nil {
		return err
	}
	return e.lateTrain()
}

// pickGroups is ApplyHandovers' group pre-pass: arrivals[i].group
// becomes the destination group of moves[i]'s twin whenever this
// partition owns moves[i].To. The moves are bucketed by destination
// cell and the buckets fan out over the pool, one task per cell, so
// each cell's encoder has one user; a task writes only its own moves'
// slots, so the choices do not depend on scheduling. The buckets are
// engine-owned and reused across passes.
func (e *Engine) pickGroups(moves []Handover, arrivals []arrival) {
	dests := e.dests[:0]
	for i, h := range moves {
		if !e.mask[h.To] || e.cells[h.To].eng.NumGroups() == 0 {
			continue
		}
		if len(e.inbound[h.To]) == 0 {
			dests = append(dests, h.To)
		}
		e.inbound[h.To] = append(e.inbound[h.To], i)
	}
	e.dests = dests
	_ = e.sub.Pool.For(len(dests), func(k int) error {
		eng := e.cells[dests[k]].eng
		for _, i := range e.inbound[dests[k]] {
			arrivals[i].group = eng.NearestGroup(arrivals[i].user)
		}
		return nil
	})
	for _, c := range dests {
		e.inbound[c] = e.inbound[c][:0]
	}
}

// move is the one place a twin changes cells: detached from h.From
// when this partition owns it (otherwise a.user is the decoded
// import), attached to h.To in group a.group when this partition owns
// that, and recorded in the owner map. Handover and evacuation both go
// through it.
func (e *Engine) move(h Handover, a arrival) error {
	in := a.user
	if e.mask[h.From] {
		var ok bool
		if in, ok = e.cells[h.From].eng.DetachUser(h.ID); !ok {
			return fmt.Errorf("user %d not detachable from cell %d: %w", h.ID, h.From, ErrConfig)
		}
		e.local--
	}
	if e.mask[h.To] {
		if err := e.cells[h.To].eng.AttachUserTo(in, a.group); err != nil {
			return err
		}
		e.cells[h.To].migratedIn++
		e.local++
	}
	e.owner[h.ID] = h.To
	return nil
}

// migrate is the handover pass of an engine with no remote endpoint:
// plan, then apply the plan as it stands.
func (e *Engine) migrate() error {
	t0 := e.metHandover.Start()
	defer e.metHandover.ObserveSince(t0)
	plan, err := e.PlanHandovers()
	if err != nil {
		return err
	}
	return e.ApplyHandovers(plan)
}

// checkConservation verifies the twin-conservation invariant over the
// owned cells — every local twin lives in exactly one of them — after
// a handover or evacuation pass.
func (e *Engine) checkConservation(pass string) error {
	total := 0
	for _, ci := range e.owned {
		total += e.cells[ci].eng.NumUsers()
	}
	if total != e.local {
		return fmt.Errorf("%d twins after %s, want %d (twin lost or duplicated): %w", total, pass, e.local, ErrConfig)
	}
	return nil
}
