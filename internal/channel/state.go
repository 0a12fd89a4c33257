// This file encodes the link's mutable state for session checkpoints
// and handovers. The channel parameters and the link's random stream
// are restored by replaying construction on the same derived stream;
// the encoding covers the serving station and the shadowing draw.

package channel

import (
	"fmt"

	"dtmsvs/internal/checkpoint"
)

// EncodeState appends the link's mutable state: the serving station's
// id (station pointers are rebound on decode) and the shadowing draw.
func (l *Link) EncodeState(e *checkpoint.Enc) {
	e.Int(l.bs.ID)
	e.F64(l.shadowDB)
}

// DecodeState overwrites the link's mutable state with bytes
// EncodeState wrote, rebinding the serving station from the deployment
// (stations[i].ID must equal i, as GridDeploy guarantees). A station
// outside the deployment is checkpoint.ErrCorrupt.
func (l *Link) DecodeState(d *checkpoint.Dec, stations []*BaseStation) error {
	bs := d.Int()
	shadowDB := d.F64()
	if err := d.Err(); err != nil {
		return err
	}
	if bs < 0 || bs >= len(stations) {
		return fmt.Errorf("link state bs %d of %d: %w", bs, len(stations), checkpoint.ErrCorrupt)
	}
	l.bs = stations[bs]
	l.shadowDB = shadowDB
	return nil
}

// ShadowDB returns the link's shadowing draw in dB.
func (l *Link) ShadowDB() float64 { return l.shadowDB }
