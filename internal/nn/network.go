package nn

import (
	"fmt"
	"math"

	"dtmsvs/internal/vecmath"
)

// Network chains layers into a sequential model.
type Network struct {
	layers []Layer
	// params caches the flattened parameter list: layer param sets are
	// static, and rebuilding the slice every ZeroGrads/Step would be
	// the only allocation left in a training step.
	params []Param
	// gradFrom is the index of the first layer with parameters (len(layers)
	// when none has any): BackwardBatchParams stops there.
	gradFrom int
}

// NewNetwork validates that consecutive layer shapes are compatible
// for the given input width and returns the model.
func NewNetwork(inputDim int, layers ...Layer) (*Network, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("network with no layers: %w", ErrShape)
	}
	width := inputDim
	gradFrom := len(layers)
	for i, l := range layers {
		out, err := l.OutSize(width)
		if err != nil {
			return nil, fmt.Errorf("network layer %d: %w", i, err)
		}
		width = out
		if gradFrom == len(layers) && len(l.Params()) > 0 {
			gradFrom = i
		}
	}
	return &Network{layers: layers, gradFrom: gradFrom}, nil
}

// Layers exposes the layer list (read-only use expected).
func (n *Network) Layers() []Layer { return n.layers }

// ZeroGrads clears all gradient accumulators.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		for i := range p.G {
			p.G[i] = 0
		}
	}
}

// Params returns all parameter/grad pairs. The slice is cached — the
// caller must not append to it.
func (n *Network) Params() []Param {
	if n.params == nil {
		for _, l := range n.layers {
			n.params = append(n.params, l.Params()...)
		}
	}
	return n.params
}

// MSELossInto returns ½·mean((pred−target)²) and writes its gradient
// w.r.t. pred into the caller-owned grad (len(grad) == len(pred)).
func MSELossInto(grad, pred, target vecmath.Vec) (float64, error) {
	if len(pred) == 0 || len(pred) != len(target) || len(grad) != len(pred) {
		return 0, fmt.Errorf("mse %d vs %d grad %d: %w", len(pred), len(target), len(grad), ErrShape)
	}
	var loss float64
	inv := 1 / float64(len(pred))
	for i := range pred {
		d := pred[i] - target[i]
		loss += 0.5 * d * d * inv
		grad[i] = d * inv
	}
	return loss, nil
}

// HuberLossInto returns the mean Huber loss with threshold delta and
// writes its gradient w.r.t. pred into the caller-owned grad
// (len(grad) == len(pred)). It is the standard DQN loss (smooth L1) —
// quadratic near zero, linear in the tails, which stabilizes TD
// training.
func HuberLossInto(grad, pred, target vecmath.Vec, delta float64) (float64, error) {
	if len(pred) == 0 || len(pred) != len(target) || len(grad) != len(pred) {
		return 0, fmt.Errorf("huber %d vs %d grad %d: %w", len(pred), len(target), len(grad), ErrShape)
	}
	if delta <= 0 {
		return 0, fmt.Errorf("huber delta=%v: %w", delta, ErrShape)
	}
	var loss float64
	inv := 1 / float64(len(pred))
	for i := range pred {
		d := pred[i] - target[i]
		if math.Abs(d) <= delta {
			loss += 0.5 * d * d * inv
			grad[i] = d * inv
		} else {
			loss += delta * (math.Abs(d) - 0.5*delta) * inv
			if d > 0 {
				grad[i] = delta * inv
			} else {
				grad[i] = -delta * inv
			}
		}
	}
	return loss, nil
}

// Adam is the Adam optimizer with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t    int
	m, v [][]float64
}

// NewAdam returns Adam with conventional defaults for any zero field.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one update to every parameter pair.
func (a *Adam) Step(params []Param) error {
	if a.LR <= 0 {
		return fmt.Errorf("adam lr=%v: %w", a.LR, ErrShape)
	}
	if a.m == nil {
		a.m = make([][]float64, len(params))
		a.v = make([][]float64, len(params))
		for i, p := range params {
			a.m[i] = make([]float64, len(p.W))
			a.v[i] = make([]float64, len(p.W))
		}
	}
	if len(a.m) != len(params) {
		return fmt.Errorf("adam param-set changed size: %w", ErrShape)
	}
	a.t++
	c := vecmath.AdamCoeffs{
		B1: a.Beta1, C1: 1 - a.Beta1,
		B2: a.Beta2, C2: 1 - a.Beta2,
		LR: a.LR, Eps: a.Eps,
		BC1: 1 - math.Pow(a.Beta1, float64(a.t)),
		BC2: 1 - math.Pow(a.Beta2, float64(a.t)),
	}
	for i, p := range params {
		m, v := a.m[i], a.v[i]
		if len(m) != len(p.W) || len(p.G) != len(p.W) {
			return fmt.Errorf("adam param %d shape: %w", i, ErrShape)
		}
		vecmath.AdamUnchecked(&c, p.W, p.G, m, v)
	}
	return nil
}

// ClipGrads scales all gradients so their global L2 norm is at most
// maxNorm. Returns the pre-clip norm.
func ClipGrads(params []Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.G {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			for j := range p.G {
				p.G[j] *= scale
			}
		}
	}
	return norm
}
