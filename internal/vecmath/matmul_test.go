package vecmath

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func randMat(rows, cols int, rng *rand.Rand) *Matrix {
	m := MustMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// naiveMatMul is the textbook triple loop used as the reference
// implementation (j innermost, k middle — a different loop order than
// the tiled kernels, but the same ascending-k summation per element).
func naiveMatMul(a, b *Matrix, transA, transB bool) *Matrix {
	rowsA, colsA := a.Rows, a.Cols
	if transA {
		rowsA, colsA = a.Cols, a.Rows
	}
	colsB := b.Cols
	if transB {
		colsB = b.Rows
	}
	at := func(m *Matrix, i, j int, trans bool) float64 {
		if trans {
			return m.At(j, i)
		}
		return m.At(i, j)
	}
	dst := MustMatrix(rowsA, colsB)
	for i := 0; i < rowsA; i++ {
		for j := 0; j < colsB; j++ {
			var s float64
			for k := 0; k < colsA; k++ {
				s += at(a, i, k, transA) * at(b, k, j, transB)
			}
			dst.Set(i, j, s)
		}
	}
	return dst
}

func wantBitIdentical(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s shape %dx%d want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s data[%d] = %v want %v", name, i, got.Data[i], want.Data[i])
		}
	}
}

// TestMatMulIntoMatchesNaive covers dst = a·b against the reference
// triple loop, including shapes that are not multiples of the tiles.
func TestMatMulIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range [][3]int{{1, 1, 1}, {3, 5, 7}, {4, 4, 4}, {5, 2, 3}, {9, 70, 65}, {32, 64, 7}} {
		m, k, n := sh[0], sh[1], sh[2]
		a, b := randMat(m, k, rng), randMat(k, n, rng)
		dst := MustMatrix(m, n)
		// Pre-poison dst: Into kernels must overwrite, not accumulate.
		for i := range dst.Data {
			dst.Data[i] = 1e9
		}
		if err := MatMulInto(dst, a, b); err != nil {
			t.Fatal(err)
		}
		wantBitIdentical(t, "matmul", dst, naiveMatMul(a, b, false, false))
	}
}

// addOuter accumulates m += a ⊗ b one destination row at a time,
// skipping zero coefficients: the single-sample weight-gradient loop
// the batched dW = dYᵀ·X accumulation is held to.
func addOuter(m *Matrix, a, b Vec) {
	for i, ai := range a {
		if ai != 0 {
			AXPYUnchecked(ai, b, m.Row(i))
		}
	}
}

// TestMatMulTransAIntoMatchesNaive covers dst = aᵀ·b and the
// accumulate variant's exact per-sample-order equivalence.
func TestMatMulTransAIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, sh := range [][3]int{{1, 1, 1}, {6, 3, 4}, {32, 16, 9}, {5, 66, 70}} {
		k, m, n := sh[0], sh[1], sh[2]
		a, b := randMat(k, m, rng), randMat(k, n, rng)
		dst := MustMatrix(m, n)
		for i := range dst.Data {
			dst.Data[i] = 1e9
		}
		if err := MatMulTransAInto(dst, a, b); err != nil {
			t.Fatal(err)
		}
		wantBitIdentical(t, "matmulTransA", dst, naiveMatMul(a, b, true, false))

		// The accumulate variant over a zeroed gradient matrix must be
		// bit-identical to summing the per-sample outer products in
		// sample order — the contract the batched backward relies on.
		acc := MustMatrix(m, n)
		if err := MatMulTransAAccumInto(acc, a, b); err != nil {
			t.Fatal(err)
		}
		perSample := MustMatrix(m, n)
		for s := 0; s < k; s++ {
			addOuter(perSample, a.Row(s), b.Row(s))
		}
		wantBitIdentical(t, "matmulTransA-accum-vs-outer", acc, perSample)
	}
}

// TestTransposedMatMulMatchesPerRowMulVec covers dst = a·bᵀ computed
// the way the Dense forward computes it — TransposeInto followed by
// MatMulInto — against the naive reference, and against per-row
// vector products: each row of dst must equal the one-row MatMulInto
// of that row of a, bit for bit, which is what lets a network's
// forward pass batch samples freely.
func TestTransposedMatMulMatchesPerRowMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sh := range [][3]int{{1, 1, 1}, {4, 6, 3}, {32, 8, 7}, {3, 80, 70}} {
		m, k, n := sh[0], sh[1], sh[2]
		a, b := randMat(m, k, rng), randMat(n, k, rng)
		bt := MustMatrix(k, n)
		if err := TransposeInto(bt, b); err != nil {
			t.Fatal(err)
		}
		dst := MustMatrix(m, n)
		for i := range dst.Data {
			dst.Data[i] = 1e9
		}
		if err := MatMulInto(dst, a, bt); err != nil {
			t.Fatal(err)
		}
		wantBitIdentical(t, "matmul-transposed", dst, naiveMatMul(a, b, false, true))
		row, out := MustMatrix(1, k), MustMatrix(1, n)
		for i := 0; i < m; i++ {
			copy(row.Data, a.Row(i))
			if err := MatMulInto(out, row, bt); err != nil {
				t.Fatal(err)
			}
			for j, v := range out.Data {
				if dst.At(i, j) != v {
					t.Fatalf("row %d col %d: %v vs one-row product %v", i, j, dst.At(i, j), v)
				}
			}
		}
	}
}

// TestTransposeInto checks every element of the transpose at every
// shape up to 9×9, so each split into runs of four source rows and a
// remainder is covered.
func TestTransposeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for r := 1; r <= 9; r++ {
		for c := 1; c <= 9; c++ {
			a, at := randMat(r, c, rng), MustMatrix(c, r)
			if err := TransposeInto(at, a); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < r; i++ {
				for j := 0; j < c; j++ {
					if math.Float64bits(at.At(j, i)) != math.Float64bits(a.At(i, j)) {
						t.Fatalf("%dx%d: [%d,%d] = %v, want %v", r, c, j, i, at.At(j, i), a.At(i, j))
					}
				}
			}
		}
	}
}

func TestMatMulShapeErrors(t *testing.T) {
	a := MustMatrix(3, 4)
	b := MustMatrix(5, 6)
	if err := MatMulInto(MustMatrix(3, 6), a, b); !errors.Is(err, ErrShape) {
		t.Fatalf("matmul inner mismatch: %v", err)
	}
	if err := MatMulTransAInto(MustMatrix(4, 6), a, b); !errors.Is(err, ErrShape) {
		t.Fatalf("matmulTransA mismatch: %v", err)
	}
	if err := TransposeInto(MustMatrix(3, 4), a); !errors.Is(err, ErrShape) {
		t.Fatalf("transpose mismatch: %v", err)
	}
	if err := MatMulInto(MustMatrix(2, 6), a, MustMatrix(4, 6)); !errors.Is(err, ErrShape) {
		t.Fatalf("matmul dst mismatch: %v", err)
	}
}

func TestMatrixResize(t *testing.T) {
	m := MustMatrix(4, 8)
	base := &m.Data[0]
	if err := m.Resize(2, 3); err != nil {
		t.Fatal(err)
	}
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("resize gave %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	if &m.Data[0] != base {
		t.Fatal("shrinking resize reallocated")
	}
	if err := m.Resize(100, 100); err != nil {
		t.Fatal(err)
	}
	if m.Rows != 100 || m.Cols != 100 || len(m.Data) != 10000 {
		t.Fatalf("growing resize gave %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	if err := m.Resize(0, 3); !errors.Is(err, ErrShape) {
		t.Fatalf("zero-row resize: %v", err)
	}
}

// TestNarrowMatMulMatchesAXPYSweep: matMulAccum is bit-identical
// to the AXPY sweep at every output width from 1 to 16 — on both sides
// of the row sweep's four-column floor and its overlapped last lane —
// with and without the SIMD kernels, on operands that mix signed
// zeros, infinities, NaN and subnormals into normal draws. A NaN result
// must be NaN on both sides; its payload is not compared: when both
// addends are NaN, x86 returns the first operand's, and which operand
// comes first is the register allocator's choice in the scalar AXPY.
func TestNarrowMatMulMatchesAXPYSweep(t *testing.T) {
	defer ForceGeneric(false)
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -2.5e-308}
	fill := func(rng *rand.Rand, m *Matrix) {
		for i := range m.Data {
			if rng.Intn(4) == 0 {
				m.Data[i] = special[rng.Intn(len(special))]
			} else {
				m.Data[i] = rng.NormFloat64()
			}
		}
	}
	rng := rand.New(rand.NewSource(43))
	for _, generic := range []bool{false, true} {
		ForceGeneric(generic)
		for n := 1; n <= 16; n++ {
			for _, sh := range [][2]int{{1, 1}, {3, 15}, {9, 56}, {40, 15}} {
				m, k := sh[0], sh[1]
				a, b, dst := MustMatrix(m, k), MustMatrix(k, n), MustMatrix(m, n)
				fill(rng, a)
				fill(rng, b)
				fill(rng, dst)
				want := dst.Clone()
				for i := 0; i < m; i++ {
					for kk, av := range a.Row(i) {
						if av != 0 {
							AXPYUnchecked(av, b.Row(kk), want.Row(i))
						}
					}
				}
				matMulAccum(dst, a, b)
				for i := range want.Data {
					if math.IsNaN(want.Data[i]) && math.IsNaN(dst.Data[i]) {
						continue
					}
					if math.Float64bits(dst.Data[i]) != math.Float64bits(want.Data[i]) {
						t.Fatalf("generic=%v %dx%d·%dx%d: element %d = %x, AXPY sweep %x",
							generic, m, k, k, n, i, math.Float64bits(dst.Data[i]), math.Float64bits(want.Data[i]))
					}
				}
			}
		}
	}
}

// TestRowSweepMatchesAXPYSweep: the register row sweep that takes the
// wide and transposed-A GEMM rows is bit-identical to the sweep of
// AXPYs it replaced, at every width from 1 to 100 (every column-block
// split and every overlap of the last lane), coefficient strides 1 and
// 3, sweeps of 1 to 120 rows, with and without the SIMD kernels. The
// operands mix signed zeros, infinities, NaN and subnormals into
// normal draws; as in TestNarrowMatMulMatchesAXPYSweep a NaN result
// must be NaN on both sides and its payload is not compared.
func TestRowSweepMatchesAXPYSweep(t *testing.T) {
	defer ForceGeneric(false)
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -2.5e-308}
	fill := func(rng *rand.Rand, v Vec) {
		for i := range v {
			if rng.Intn(4) == 0 {
				v[i] = special[rng.Intn(len(special))]
			} else {
				v[i] = rng.NormFloat64()
			}
		}
	}
	rng := rand.New(rand.NewSource(45))
	for _, generic := range []bool{false, true} {
		ForceGeneric(generic)
		for n := 1; n <= 100; n++ {
			for _, cs := range []int{1, 3} {
				for _, k := range []int{1, 2, 5, 8, 56, 120} {
					coef, bd := make(Vec, (k-1)*cs+1), make(Vec, k*n)
					got := make(Vec, n)
					fill(rng, coef)
					fill(rng, bd)
					fill(rng, got)
					want := Clone(got)
					for kk := 0; kk < k; kk++ {
						if av := coef[kk*cs]; av != 0 {
							AXPYUnchecked(av, bd[kk*n:kk*n+n], want)
						}
					}
					sweepRow(got, coef, cs, bd, n, k)
					for j := range want {
						if math.IsNaN(want[j]) && math.IsNaN(got[j]) {
							continue
						}
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("generic=%v n=%d cs=%d k=%d: column %d = %x, AXPY sweep %x",
								generic, n, cs, k, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
						}
					}
				}
			}
		}
	}
}
