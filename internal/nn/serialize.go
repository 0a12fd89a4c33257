package nn

import (
	"fmt"

	"dtmsvs/internal/checkpoint"
)

// EncodeWeights appends the network's parameters to a checkpoint
// section in the form DecodeWeights reads: tensor count, then each
// tensor as a length-prefixed float64 slice, straight from the live
// tensors. Float bits round-trip exactly, so encode/decode preserves
// weights bitwise. The room for every tensor is reserved first, so an
// encoder too small for the network grows once rather than once per
// tensor.
func (n *Network) EncodeWeights(e *checkpoint.Enc) {
	params := n.Params()
	size := 4
	for _, p := range params {
		size += 4 + 8*len(p.W)
	}
	e.Grow(size)
	e.U32(uint32(len(params)))
	for _, p := range params {
		e.F64s(p.W)
	}
}

// DecodeWeights overwrites the network's parameters with weights
// EncodeWeights wrote, read straight into the live tensors.
// Architectures come from configuration, not from the bytes: a tensor
// count or a tensor length other than this network's is
// checkpoint.ErrCorrupt, and leaves the network partly overwritten.
func (n *Network) DecodeWeights(d *checkpoint.Dec) error {
	params := n.Params()
	count := d.U32()
	if err := d.Err(); err != nil {
		return err
	}
	if int(count) != len(params) {
		return fmt.Errorf("%d weight tensors, network has %d: %w", count, len(params), checkpoint.ErrCorrupt)
	}
	for i, p := range params {
		if got := d.F64sInto(p.W); got != len(p.W) && d.Err() == nil {
			return fmt.Errorf("tensor %d has %d values, want %d: %w", i, got, len(p.W), checkpoint.ErrCorrupt)
		}
	}
	return d.Err()
}
