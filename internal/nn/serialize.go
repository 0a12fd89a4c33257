package nn

import (
	"fmt"

	"dtmsvs/internal/checkpoint"
)

// WeightState is the serializable parameter set of a network: one
// flat float64 slice per Param, in layer order. Architectures are
// reconstructed from configuration (not stored), so loading is only
// valid into a network of the identical shape — which Load verifies.
type WeightState struct {
	// Params holds each parameter tensor's flattened values.
	Params [][]float64 `json:"params"`
}

// SaveWeights captures the network's parameters.
func (n *Network) SaveWeights() *WeightState {
	params := n.Params()
	out := &WeightState{Params: make([][]float64, len(params))}
	for i, p := range params {
		out.Params[i] = append([]float64(nil), p.W...)
	}
	return out
}

// LoadWeights restores parameters captured by SaveWeights into a
// network of the identical architecture.
func (n *Network) LoadWeights(state *WeightState) error {
	if state == nil {
		return fmt.Errorf("nil weight state: %w", ErrShape)
	}
	params := n.Params()
	if len(params) != len(state.Params) {
		return fmt.Errorf("weight state has %d tensors, network has %d: %w",
			len(state.Params), len(params), ErrShape)
	}
	for i, p := range params {
		if len(p.W) != len(state.Params[i]) {
			return fmt.Errorf("tensor %d has %d values, want %d: %w",
				i, len(state.Params[i]), len(p.W), ErrShape)
		}
	}
	for i, p := range params {
		copy(p.W, state.Params[i])
	}
	return nil
}

// EncodeWeights appends the network's parameters to a checkpoint
// section in the form DecodeWeightState reads: tensor count, then each
// tensor as a length-prefixed float64 slice, straight from the live
// tensors (no SaveWeights copy). Float bits round-trip
// exactly, so encode/decode preserves weights bitwise. The room for
// every tensor is reserved first, so an encoder too small for the
// network grows once rather than once per tensor.
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

// DecodeWeightState reads a weight state written by Encode. Shape
// validation happens at LoadWeights time, against the live network.
func DecodeWeightState(d *checkpoint.Dec) *WeightState {
	n := d.U32()
	if d.Err() != nil {
		return &WeightState{}
	}
	s := &WeightState{Params: make([][]float64, 0, min(int(n), 1024))}
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		s.Params = append(s.Params, d.F64s())
	}
	return s
}
