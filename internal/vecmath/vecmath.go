// Package vecmath provides the dense float64 vector and matrix
// primitives shared by the neural-network, clustering and prediction
// packages. It is deliberately small: plain slices, no BLAS, no
// reflection, so everything stays allocation-predictable and easy to
// benchmark.
package vecmath

import (
	"errors"
	"fmt"
	"math"
)

// ErrShape is returned (wrapped) whenever operand dimensions do not
// line up.
var ErrShape = errors.New("vecmath: shape mismatch")

// Vec is a dense float64 vector.
type Vec = []float64

// Clone returns a copy of v.
func Clone(v Vec) Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Dot returns the inner product of a and b.
func Dot(a, b Vec) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("dot %d vs %d: %w", len(a), len(b), ErrShape)
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s, nil
}

// AXPY computes y += alpha*x in place.
func AXPY(alpha float64, x, y Vec) error {
	if len(x) != len(y) {
		return fmt.Errorf("axpy %d vs %d: %w", len(x), len(y), ErrShape)
	}
	for i := range x {
		y[i] += alpha * x[i]
	}
	return nil
}

// Scale multiplies v by alpha in place.
func Scale(alpha float64, v Vec) {
	for i := range v {
		v[i] *= alpha
	}
}

// AXPYUnchecked computes y += alpha*x without a shape check: the
// caller guarantees len(y) >= len(x). It is the dispatched micro-
// kernel of the GEMM hot path: on amd64 with AVX2 (and without the
// `purego` build tag) long vectors run the 4-wide assembly kernel,
// which is bit-identical to the scalar loop — see kernels.go for the
// contract. Short vectors stay scalar: the call overhead would
// dominate, and the results are identical either way.
func AXPYUnchecked(alpha float64, x, y Vec) {
	y = y[:len(x)]
	if len(x) >= axpySIMDMinLen && useAVX2() {
		axpyAVX2(alpha, &x[0], &y[0], len(x))
		return
	}
	axpyGeneric(alpha, x, y)
}

// axpySIMDMinLen is the vector length where the AVX2 AXPY kernel
// starts beating the scalar loop (call + VZEROUPPER overhead); below
// it the dispatch stays scalar. Purely a speed threshold — both sides
// produce identical bits.
const axpySIMDMinLen = 8

// SqDistUnchecked returns the squared Euclidean distance between a and
// b without a shape check: the caller guarantees len(b) >= len(a).
// The reslice hoists the per-element bounds check out of the loop.
func SqDistUnchecked(a, b Vec) float64 {
	b = b[:len(a)]
	var s float64
	for i, av := range a {
		d := av - b[i]
		s += d * d
	}
	return s
}

// Add returns a+b as a new vector.
func Add(a, b Vec) (Vec, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("add %d vs %d: %w", len(a), len(b), ErrShape)
	}
	out := make(Vec, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out, nil
}

// Sub returns a-b as a new vector.
func Sub(a, b Vec) (Vec, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("sub %d vs %d: %w", len(a), len(b), ErrShape)
	}
	out := make(Vec, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out, nil
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v Vec) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// SqDist returns the squared Euclidean distance between a and b.
func SqDist(a, b Vec) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("sqdist %d vs %d: %w", len(a), len(b), ErrShape)
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s, nil
}

// Dist returns the Euclidean distance between a and b.
func Dist(a, b Vec) (float64, error) {
	s, err := SqDist(a, b)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(s), nil
}

// Sum returns the sum of the elements of v.
func Sum(v Vec) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of v (0 for an empty vector).
func Mean(v Vec) float64 {
	if len(v) == 0 {
		return 0
	}
	return Sum(v) / float64(len(v))
}

// ArgMax returns the index of the maximum element (-1 for empty).
// Ties resolve to the lowest index.
func ArgMax(v Vec) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// ArgMin returns the index of the minimum element (-1 for empty).
func ArgMin(v Vec) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] < v[best] {
			best = i
		}
	}
	return best
}

// Max returns the maximum element of v (NaN for empty).
func Max(v Vec) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	return v[ArgMax(v)]
}

// Min returns the minimum element of v (NaN for empty).
func Min(v Vec) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	return v[ArgMin(v)]
}

// Clamp limits x into [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
