package vecmath

import (
	"fmt"
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

// gemmShapes sweeps odd GEMM shapes: outputs smaller than the block
// size, dimensions off every vector-width multiple, single elements,
// single rows/columns, and a long inner dimension.
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 1},
	{3, 1, 5},
	{2, 3, 2},
	{5, 5, 5},
	{7, 13, 9},
	{16, 16, 16},
	{17, 33, 9},
	{32, 64, 64},
	{64, 3, 64},
	{129, 7, 65},
	{2, 500, 2},
	{65, 66, 67},
}

func fillMat(rng *rand.Rand, m *Matrix) {
	for i := range m.Data {
		// Include exact zeros: the AXPY-form kernels skip them.
		if rng.Intn(8) == 0 {
			m.Data[i] = 0
		} else {
			m.Data[i] = rng.NormFloat64()
		}
	}
}

func matsEqual(t *testing.T, tag string, want, got *Matrix) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", tag, want.Rows, want.Cols, got.Rows, got.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
			t.Fatalf("%s: element %d: want %x got %x",
				tag, i, math.Float64bits(want.Data[i]), math.Float64bits(got.Data[i]))
		}
	}
}

// TestGEMMPoolMatchesSequential is the pool-parallel half of the
// determinism contract: every kernel, over every odd shape, at every
// worker count, with the threshold forced to zero so the fan-out
// actually engages, must be bit-identical to the sequential kernels —
// which the SIMD equivalence tests in turn pin to the scalar loops.
func TestGEMMPoolMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, workers := range []int{1, 2, 3, 4, 8} {
		pool := NewGEMMPool(workers)
		pool.MinFlops = 1 // force fan-out on every shape
		for _, sh := range gemmShapes {
			a := MustMatrix(sh.m, sh.k)
			b := MustMatrix(sh.k, sh.n)
			at := MustMatrix(sh.k, sh.m)
			fillMat(rng, a)
			fillMat(rng, b)
			fillMat(rng, at)
			tag := func(op string) string {
				return fmt.Sprintf("%s w=%d m=%d k=%d n=%d", op, workers, sh.m, sh.k, sh.n)
			}

			want := MustMatrix(sh.m, sh.n)
			got := MustMatrix(sh.m, sh.n)
			fillMat(rng, got) // parallel path must fully overwrite
			if err := MatMulInto(want, a, b); err != nil {
				t.Fatal(err)
			}
			if err := pool.MatMulInto(got, a, b); err != nil {
				t.Fatal(err)
			}
			matsEqual(t, tag("matmul"), want, got)

			if err := MatMulTransAInto(want, at, b); err != nil {
				t.Fatal(err)
			}
			fillMat(rng, got)
			if err := pool.MatMulTransAInto(got, at, b); err != nil {
				t.Fatal(err)
			}
			matsEqual(t, tag("transA"), want, got)

			// Accumulating form: seed both destinations identically.
			fillMat(rng, want)
			copy(got.Data, want.Data)
			if err := MatMulTransAAccumInto(want, at, b); err != nil {
				t.Fatal(err)
			}
			if err := pool.MatMulTransAAccumInto(got, at, b); err != nil {
				t.Fatal(err)
			}
			matsEqual(t, tag("transAaccum"), want, got)
		}
		pool.Close()
	}
}

// TestGEMMPoolSequentialFallbacks covers the paths that skip the
// fan-out: nil pools, single-worker pools, sub-threshold work and
// shape errors (which must surface identically on both paths).
func TestGEMMPoolSequentialFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	a := MustMatrix(4, 4)
	b := MustMatrix(4, 4)
	fillMat(rng, a)
	fillMat(rng, b)
	want := MustMatrix(4, 4)
	if err := MatMulInto(want, a, b); err != nil {
		t.Fatal(err)
	}

	var nilPool *GEMMPool
	got := MustMatrix(4, 4)
	if err := nilPool.MatMulInto(got, a, b); err != nil {
		t.Fatal(err)
	}
	matsEqual(t, "nil pool", want, got)
	nilPool.Close() // must not panic

	seq := NewGEMMPool(1)
	defer seq.Close()
	if err := seq.MatMulInto(got, a, b); err != nil {
		t.Fatal(err)
	}
	matsEqual(t, "workers=1", want, got)

	par := NewGEMMPool(4)
	defer par.Close()
	// Default threshold: a 4x4x4 product stays sequential; result
	// must be identical anyway.
	if err := par.MatMulInto(got, a, b); err != nil {
		t.Fatal(err)
	}
	matsEqual(t, "sub-threshold", want, got)

	bad := MustMatrix(3, 3)
	par.MinFlops = 1
	for _, err := range []error{
		par.MatMulInto(bad, a, b),
		par.MatMulTransAInto(bad, a, b),
		par.MatMulTransAAccumInto(bad, a, b),
	} {
		if err == nil {
			t.Fatal("shape mismatch did not error on the pool path")
		}
	}
}

// TestGEMMPoolAllocFree is the allocation gate for the parallel GEMM
// path: once the crew is spawned, a steady-state fanned kernel call
// must not touch the heap at any worker count.
func TestGEMMPoolAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for _, workers := range []int{1, 4, 8} {
		pool := NewGEMMPool(workers)
		pool.MinFlops = 1
		a := MustMatrix(64, 32)
		b := MustMatrix(32, 48)
		at := MustMatrix(32, 64)
		dst := MustMatrix(64, 48)
		gw := MustMatrix(64, 48)
		fillMat(rng, a)
		fillMat(rng, b)
		fillMat(rng, at)
		// Prime: spawns the crew goroutines.
		if err := pool.MatMulInto(dst, a, b); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := pool.MatMulInto(dst, a, b); err != nil {
				t.Fatal(err)
			}
			if err := pool.MatMulTransAInto(gw, at, b); err != nil {
				t.Fatal(err)
			}
			if err := pool.MatMulTransAAccumInto(gw, at, b); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("workers=%d: parallel GEMM allocates %v per run", workers, n)
		}
		pool.Close()
	}
}
