// This file encodes each mobility model's mutable state for session
// checkpoints and handovers. Construction-time parameters (map, speed
// bounds, route, noise parameters) and the model's random stream are
// restored by replaying the constructor on the same derived stream;
// the encoding covers only the fields that evolve as the walker
// advances, after a kind tag that names the model.

package mobility

import (
	"fmt"

	"dtmsvs/internal/checkpoint"
)

// Model kind tags, the first byte of an encoded state.
const (
	kindWaypoint uint8 = iota
	kindLandmark
	kindGaussMarkov
	kindStatic
)

// EncodeState appends m's kind tag and mutable state. A model this
// package does not define is ErrParam.
func EncodeState(e *checkpoint.Enc, m Model) error {
	switch m := m.(type) {
	case *RandomWaypoint:
		e.U8(kindWaypoint)
		e.F64(m.pos.X)
		e.F64(m.pos.Y)
		e.F64(m.dst.X)
		e.F64(m.dst.Y)
		e.F64(m.speed)
		e.F64(m.pauseLeft)
	case *LandmarkWalk:
		e.U8(kindLandmark)
		e.F64(m.pos.X)
		e.F64(m.pos.Y)
		e.Int(m.next)
	case *GaussMarkov:
		e.U8(kindGaussMarkov)
		e.F64(m.pos.X)
		e.F64(m.pos.Y)
		e.F64(m.speed)
		e.F64(m.dir)
	case *Static:
		e.U8(kindStatic)
	default:
		return fmt.Errorf("unknown mobility model %T: %w", m, ErrParam)
	}
	return nil
}

// DecodeState overwrites m's mutable state with bytes EncodeState
// wrote for a model of the same kind, built by the same constructor.
// A kind tag that does not name m's type, and a landmark walker's next
// stop outside its route, are checkpoint.ErrCorrupt.
func DecodeState(d *checkpoint.Dec, m Model) error {
	kind := d.U8()
	if err := d.Err(); err != nil {
		return err
	}
	switch m := m.(type) {
	case *RandomWaypoint:
		if kind == kindWaypoint {
			m.pos = Point{X: d.F64(), Y: d.F64()}
			m.dst = Point{X: d.F64(), Y: d.F64()}
			m.speed = d.F64()
			m.pauseLeft = d.F64()
			return d.Err()
		}
	case *LandmarkWalk:
		if kind == kindLandmark {
			m.pos = Point{X: d.F64(), Y: d.F64()}
			m.next = d.Int()
			if d.Err() == nil && (m.next < 0 || m.next >= len(m.route)) {
				return fmt.Errorf("landmark walker's next stop %d of %d: %w", m.next, len(m.route), checkpoint.ErrCorrupt)
			}
			return d.Err()
		}
	case *GaussMarkov:
		if kind == kindGaussMarkov {
			m.pos = Point{X: d.F64(), Y: d.F64()}
			m.speed = d.F64()
			m.dir = d.F64()
			return d.Err()
		}
	case *Static:
		if kind == kindStatic {
			return nil
		}
	}
	return fmt.Errorf("mobility state of kind %d for %T: %w", kind, m, checkpoint.ErrCorrupt)
}
