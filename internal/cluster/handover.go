// This file is the twin-handover pass — the only one: a plan over the
// owned twins in global user-id order, then an apply of every move
// touching this partition. The single-process engine runs the two back
// to back (migrate); partition workers exchange the moves that cross
// them through internal/coord between the two calls.
//
// Determinism: apply hands every owned cell its departures and
// arrivals in ascending global user-id order, and sim.Splice leaves a
// cell where detaching and attaching them one at a time in that order
// would, so every owned cell ends as it does when one engine owns all
// cells — per-cell state, and therefore the merged trace, is
// bit-identical for any partition.

package cluster

import (
	"cmp"
	"fmt"
	"slices"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/sim"
)

// Handover is one boundary twin move. Twin carries the user's full
// mutable state (the sim per-user checkpoint encoding) when the move
// leaves the planning partition; it is nil for moves both of whose
// endpoints the partition owns, where the twin moves by pointer. Twin
// is a capacity-capped window of a buffer the Handover does not own —
// PlanHandovers' arena, or the frame a coord batch was decoded from —
// and is valid only as long as that buffer is (see PlanHandovers).
type Handover struct {
	ID   int
	From int
	To   int
	Twin []byte
}

// PlanHandovers scans the owned twins in global id order and returns
// every pending move out of an owned cell: each user whose link now
// serves a base station of another cell. Moves leaving the partition
// carry the twin's wire encoding, captured before any mutation; engine
// state is untouched until ApplyHandovers. The returned slice is the
// engine's own buffer, and every Twin in it a window of the engine's
// twin arena, which the next PlanHandovers reuses: both are valid until
// then, and no longer.
func (e *Engine) PlanHandovers() ([]Handover, error) {
	plan := e.plan[:0]
	enc := &e.twins
	enc.Reset()
	for id, from := range e.owner {
		if !e.mask[from] {
			continue
		}
		bs := e.cells[from].eng.ServingBSOf(id)
		if bs < 0 {
			return nil, fmt.Errorf("user %d missing from cell %d: %w", id, from, ErrConfig)
		}
		to := e.cellOf[bs]
		if to == from {
			continue
		}
		h := Handover{ID: id, From: from, To: to}
		if !e.mask[to] {
			// A twin that grows the arena leaves the windows already
			// taken in the old array, whose bytes no later twin touches.
			at := len(enc.Bytes())
			if err := e.cells[from].eng.EncodeUser(enc, id); err != nil {
				return nil, err
			}
			b := enc.Bytes()
			h.Twin = b[at:len(b):len(b)]
		}
		plan = append(plan, h)
	}
	e.plan = plan
	return plan, nil
}

// ApplyHandovers applies one boundary's moves touching this partition
// — its own plan plus the imports routed from its peers — in ascending
// global user-id order: each twin leaves its old station's cell (UDT,
// calibration state and random stream intact) and joins the new one's.
// Every move is checked, and every import decoded, before the first
// twin moves, so a rejected batch leaves the engine untouched. The
// moves are then applied cell by cell (relocate): one batched group
// pick and one splice per touched cell. The pass ends by verifying
// twin conservation and late-training owned cells that just gained
// their first users.
func (e *Engine) ApplyHandovers(moves []Handover) error {
	// The engine's own plan is already id-ordered; only a batch merged
	// with imports needs the sorted copy, kept in the engine's buffer.
	for i := 1; i < len(moves); i++ {
		if moves[i].ID < moves[i-1].ID {
			moves = append(e.sorted[:0], moves...)
			slices.SortFunc(moves, func(a, b Handover) int { return cmp.Compare(a.ID, b.ID) })
			e.sorted = moves
			break
		}
	}
	users := e.users[:0]
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
			users = append(users, mu)
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
		users = append(users, mu)
	}
	e.users = users
	for _, h := range moves {
		if e.mask[h.From] {
			e.handovers++
			e.metHandovers.Inc()
		}
	}
	err := e.relocate(moves, users)
	clear(users) // hold no twin past the pass
	if err != nil {
		return err
	}
	if err := e.checkConservation("handover"); err != nil {
		return err
	}
	return e.lateTrain()
}

// cellSplice is one owned cell's share of a relocation: the ids that
// leave it, the twins that join it (both in ascending id order) and
// the joiners' groups.
type cellSplice struct {
	departs  []int
	arrivals []sim.User
	groups   []int
}

// relocate is the one place twins change cells; handover and
// evacuation both go through it. moves are in ascending id order and
// users[i] is moves[i]'s twin: the owned twin still in its source
// cell, or the decoded import. The moves are bucketed by owned cell,
// and each touched cell is one pool task: it picks its arrivals' groups
// in one batch (sim.NearestGroups), which reads only the twins and the
// cell's encoder and centroids, none of which the pass changes, and
// then applies its departures and arrivals in one splice (sim.Splice).
// A task writes only its own cell, so the outcome does not depend on
// scheduling, and each cell ends where applying its moves one at a
// time in id order would leave it. The owner map and twin counts
// follow. The buckets are engine-owned and reused across passes.
func (e *Engine) relocate(moves []Handover, users []sim.User) error {
	touched := e.touched[:0]
	bucket := func(c int) *cellSplice {
		sp := &e.splices[c]
		if len(sp.departs) == 0 && len(sp.arrivals) == 0 {
			touched = append(touched, c)
		}
		return sp
	}
	for i, h := range moves {
		if e.mask[h.From] {
			sp := bucket(h.From)
			sp.departs = append(sp.departs, h.ID)
		}
		if e.mask[h.To] {
			sp := bucket(h.To)
			sp.arrivals = append(sp.arrivals, users[i])
		}
	}
	e.touched = touched
	err := e.sub.Pool.For(len(touched), func(k int) error {
		c := touched[k]
		sp := &e.splices[c]
		sp.groups = append(sp.groups[:0], make([]int, len(sp.arrivals))...)
		eng := e.cells[c].eng
		eng.NearestGroups(sp.arrivals, sp.groups)
		if err := eng.Splice(sp.departs, sp.arrivals, sp.groups); err != nil {
			return fmt.Errorf("cell %d: %w", c, err)
		}
		return nil
	})
	for _, c := range touched {
		sp := &e.splices[c]
		e.cells[c].migratedIn += len(sp.arrivals)
		e.local += len(sp.arrivals) - len(sp.departs)
		clear(sp.arrivals)
		sp.departs, sp.arrivals = sp.departs[:0], sp.arrivals[:0]
	}
	if err != nil {
		return err
	}
	for _, h := range moves {
		e.owner[h.ID] = h.To
	}
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
