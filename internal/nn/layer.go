// Package nn is a small from-scratch neural-network library used by
// the 1D-CNN UDT-data compressor (internal/cnn) and the DDQN grouping
// agent (internal/ddqn). Its dense, conv1d, pooling and activation
// layers have one forward pass, whole-minibatch ForwardBatch, and one
// backward pass, BackwardBatch, optimized with Adam. Training and
// inference run the same ForwardBatch: inference is a batch of one or
// more samples, and every output row depends only on its own input
// row. Networks are deterministic given a seeded RNG.
//
// Layers own grow-once scratch buffers: every pass returns views into
// layer-owned memory that the next call of the same pass overwrites,
// so a full training step, and an inference batch no larger than a
// training batch, run with zero steady-state heap allocations. Callers
// that need an output to survive the next pass must copy it
// (vecmath.Clone).
package nn

import (
	"errors"
	"fmt"
	"math/rand"

	"dtmsvs/internal/vecmath"
)

// ErrShape is returned when a layer receives input of the wrong size.
var ErrShape = errors.New("nn: shape mismatch")

// Layer is one differentiable stage of a network. ForwardBatch maps a
// minibatch (one sample per matrix row) and retains what the matching
// BackwardBatch needs; BackwardBatch consumes the gradient of the loss
// w.r.t. that output, accumulates parameter gradients internally and
// returns the gradient w.r.t. the input. The input matrix of a
// ForwardBatch must stay unmodified until its BackwardBatch (layers
// keep a reference, not a copy). Returned slices and matrices are
// layer-owned scratch, overwritten by the next call of the same pass.
type Layer interface {
	// ForwardBatch runs the layer on every row of x.
	ForwardBatch(x *vecmath.Matrix) (*vecmath.Matrix, error)
	// BackwardBatch propagates the batched output gradient to the
	// batched input gradient.
	BackwardBatch(grad *vecmath.Matrix) (*vecmath.Matrix, error)
	// Params returns parameter/gradient pairs for the optimizer
	// (nil for stateless layers).
	Params() []Param
	// OutSize reports the output width for the given input width,
	// or an error if the input width is unsupported.
	OutSize(in int) (int, error)
}

// Param couples a parameter slice with its gradient accumulator.
type Param struct {
	W, G []float64
}

// Dense is a fully connected layer: y = W·x + b.
type Dense struct {
	InDim, OutDim int

	w, gw *vecmath.Matrix
	b, gb vecmath.Vec

	// Batched-training scratch (see batch.go): bIn references the
	// caller's input batch between ForwardBatch and BackwardBatch,
	// bOut/bDx are layer-owned grow-once matrices, wT holds the
	// transposed weights for the AXPY-form forward GEMM.
	bIn, bOut, bDx, wT *vecmath.Matrix
}

// NewDense builds a dense layer with Xavier-initialized weights.
func NewDense(inDim, outDim int, rng *rand.Rand) (*Dense, error) {
	if inDim <= 0 || outDim <= 0 {
		return nil, fmt.Errorf("dense %d->%d: %w", inDim, outDim, ErrShape)
	}
	w, err := vecmath.NewMatrix(outDim, inDim)
	if err != nil {
		return nil, err
	}
	gw, err := vecmath.NewMatrix(outDim, inDim)
	if err != nil {
		return nil, err
	}
	w.FillXavier(rng, inDim, outDim)
	return &Dense{
		InDim: inDim, OutDim: outDim,
		w: w, gw: gw,
		b: make(vecmath.Vec, outDim), gb: make(vecmath.Vec, outDim),
	}, nil
}

var _ Layer = (*Dense)(nil)

// Params implements Layer.
func (d *Dense) Params() []Param {
	return []Param{{W: d.w.Data, G: d.gw.Data}, {W: d.b, G: d.gb}}
}

// OutSize implements Layer.
func (d *Dense) OutSize(in int) (int, error) {
	if in != d.InDim {
		return 0, fmt.Errorf("dense outsize for %d want %d: %w", in, d.InDim, ErrShape)
	}
	return d.OutDim, nil
}

// CopyWeightsFrom copies parameters from another dense layer of the
// same shape. Used for DDQN target-network synchronization.
func (d *Dense) CopyWeightsFrom(src *Dense) error {
	if d.InDim != src.InDim || d.OutDim != src.OutDim {
		return fmt.Errorf("copy dense %dx%d from %dx%d: %w", d.OutDim, d.InDim, src.OutDim, src.InDim, ErrShape)
	}
	copy(d.w.Data, src.w.Data)
	copy(d.b, src.b)
	return nil
}

// ReLU is the rectified-linear activation.
type ReLU struct {
	// bOut doubles as the backward cache: bOut[i] > 0 iff the input
	// was > 0.
	bOut, bDx *vecmath.Matrix
}

var _ Layer = (*ReLU)(nil)

// Params implements Layer.
func (r *ReLU) Params() []Param { return nil }

// OutSize implements Layer.
func (r *ReLU) OutSize(in int) (int, error) { return in, nil }

// Tanh is the hyperbolic-tangent activation.
type Tanh struct {
	bOut, bDx *vecmath.Matrix // bOut doubles as the backward cache (y = tanh x)
}

var _ Layer = (*Tanh)(nil)

// Params implements Layer.
func (t *Tanh) Params() []Param { return nil }

// OutSize implements Layer.
func (t *Tanh) OutSize(in int) (int, error) { return in, nil }
