package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

// kernTestLens sweeps every alignment case of the 16/4/1-element
// assembly loops plus empty and one-element vectors.
var kernTestLens = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1000}

// kernTestAlphas includes exact zero (the GEMM kernels' skip value),
// ±1, an irrational-ish scalar and a denormal.
var kernTestAlphas = []float64{0, 1, -1, 0.37251, -2.5e-308, 1e308}

// fillKernVec mixes normal draws with the special values the
// simulation can produce (signed zeros, infinities, denormals).
func fillKernVec(rng *rand.Rand, v Vec) {
	for i := range v {
		switch rng.Intn(12) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = math.Copysign(0, -1)
		case 2:
			v[i] = math.Inf(1)
		case 3:
			v[i] = 5e-324 // smallest denormal
		default:
			v[i] = rng.NormFloat64()
		}
	}
}

// TestAXPYKernelEquivalence is the SIMD half of the kernel
// determinism contract: the dispatched AVX2 AXPY must be bit-
// identical to the scalar loop for every length, alpha and special
// value, including when x and y alias the same slice.
func TestAXPYKernelEquivalence(t *testing.T) {
	if !cpuHasAVX2 {
		t.Skip("no AVX2: dispatch already runs the generic kernel")
	}
	rng := rand.New(rand.NewSource(71))
	for _, n := range kernTestLens {
		for _, alpha := range kernTestAlphas {
			x := make(Vec, n)
			yGen := make(Vec, n)
			ySIMD := make(Vec, n)
			fillKernVec(rng, x)
			fillKernVec(rng, yGen)
			copy(ySIMD, yGen)
			axpyGeneric(alpha, x, yGen)
			if n > 0 {
				axpyAVX2(alpha, &x[0], &ySIMD[0], n)
			}
			for i := range yGen {
				if math.Float64bits(yGen[i]) != math.Float64bits(ySIMD[i]) {
					t.Fatalf("n=%d alpha=%v i=%d: generic %x simd %x",
						n, alpha, i, math.Float64bits(yGen[i]), math.Float64bits(ySIMD[i]))
				}
			}
			// Exact aliasing (y == x): the in-place doubling form.
			aliasGen := make(Vec, n)
			fillKernVec(rng, aliasGen)
			aliasSIMD := append(Vec(nil), aliasGen...)
			axpyGeneric(alpha, aliasGen, aliasGen)
			if n > 0 {
				axpyAVX2(alpha, &aliasSIMD[0], &aliasSIMD[0], n)
			}
			for i := range aliasGen {
				if math.Float64bits(aliasGen[i]) != math.Float64bits(aliasSIMD[i]) {
					t.Fatalf("aliased n=%d alpha=%v i=%d: generic %x simd %x",
						n, alpha, i, math.Float64bits(aliasGen[i]), math.Float64bits(aliasSIMD[i]))
				}
			}
		}
	}
}

// TestAXPYDispatchAllocFree gates the dispatch layer: routing through
// the kernel decision must not touch the heap.
func TestAXPYDispatchAllocFree(t *testing.T) {
	x := make(Vec, 257)
	y := make(Vec, 257)
	for i := range x {
		x[i] = float64(i)
	}
	if n := testing.AllocsPerRun(200, func() {
		AXPYUnchecked(0.5, x, y)
	}); n != 0 {
		t.Fatalf("dispatched AXPY allocates %v per run", n)
	}
}

// TestForceGeneric pins the runtime A/B switch: with the generic
// kernel forced, CPU().Kernel reports it and results stay identical.
func TestForceGeneric(t *testing.T) {
	defer ForceGeneric(false)
	ForceGeneric(true)
	if got := CPU().Kernel; got != "generic" {
		t.Fatalf("forced generic but kernel = %q", got)
	}
	x := Vec{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	y := make(Vec, len(x))
	AXPYUnchecked(2, x, y)
	ForceGeneric(false)
	y2 := make(Vec, len(x))
	AXPYUnchecked(2, x, y2)
	for i := range y {
		if y[i] != y2[i] {
			t.Fatalf("forced-generic result differs at %d: %v vs %v", i, y[i], y2[i])
		}
	}
	if cpuHasAVX2 && CPU().Kernel != "avx2" {
		t.Fatalf("ForceGeneric(false) did not restore avx2 dispatch: %+v", CPU())
	}
}

// TestSqDist4Equivalence pins the multi-chain kernel to its
// single-output reference, output by output and bit by bit.
func TestSqDist4Equivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, n := range kernTestLens {
		a := make(Vec, n)
		bs := make([]Vec, 4)
		fillKernVec(rng, a)
		for i := range bs {
			bs[i] = make(Vec, n)
			fillKernVec(rng, bs[i])
		}
		s0, s1, s2, s3 := SqDist4Unchecked(a, bs[0], bs[1], bs[2], bs[3])
		for i, got := range []float64{s0, s1, s2, s3} {
			want := SqDistUnchecked(a, bs[i])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("sqdist4 n=%d lane %d: got %x want %x", n, i, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}
