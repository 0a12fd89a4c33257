// This file encodes the EWMA's mutable state for session checkpoints
// and handovers. Alpha is configuration (replayed at construction);
// the value and whether one has been observed are what an interval's
// observations accumulate.

package predict

import "dtmsvs/internal/checkpoint"

// EncodeState appends the average and whether it holds an observation.
func (p *EWMA) EncodeState(e *checkpoint.Enc) {
	e.F64(p.value)
	e.Bool(p.ready)
}

// DecodeState overwrites the state with bytes EncodeState wrote.
func (p *EWMA) DecodeState(d *checkpoint.Dec) error {
	p.value = d.F64()
	p.ready = d.Bool()
	return d.Err()
}
