package vecmath

import "fmt"

// Blocked matrix-matrix kernels for the minibatch training hot path.
//
// Determinism contract: for every destination element the sum over the
// inner dimension accumulates in ascending index order, starting from
// zero, no matter how the loops are tiled. The kernels are sequential,
// so results are bit-identical across machines, worker counts and call
// sites, and no destination row depends on any other row of a: a
// B-row product equals B one-row products bit for bit. Against a
// transposed weight matrix, MatMulInto reproduces the accumulation
// order of a plain ascending-index dot product, so a network's forward
// pass gives every sample the same bits however the samples are
// batched.
//
// The tiling never splits the inner dimension (that would reorder the
// summation); it blocks the *output* dimensions so operand rows are
// reused while they are hot in cache. Every destination row is one
// ascending-k sweep with the zero-coefficient skip; which form the sweep
// takes — the row held in YMM registers (sweepRow's assembly, on AVX2
// for rows of at least four columns) or a sweep of AXPYs — depends only
// on the shape and the CPU, and both round each product and each add
// on its own in ascending k, so the form never reaches the bits (see
// matMulAccum).

// MatMulInto computes dst = a·b where a is (m×k) and b is (k×n); dst
// must be (m×n) and must not alias a or b. Per element the sum runs
// over the inner index in ascending order, so the rows of dX = dY·W
// do not depend on how many samples share the batch.
func MatMulInto(dst, a, b *Matrix) error {
	if err := checkMatMul(dst, a, b); err != nil {
		return err
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	matMulAccum(dst, a, b)
	return nil
}

func checkMatMul(dst, a, b *Matrix) error {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		return fmt.Errorf("matmul %dx%d by %dx%d into %dx%d: %w",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols, ErrShape)
	}
	return nil
}

// matMulAccum accumulates dst += a·b with k ascending per element.
// Each destination row is one ascending-k sweep against the streamed
// b-rows. The reference form is a sweep of AXPYs, which loads and
// stores the destination row once per k. With AVX2, rows of at least
// four columns instead run sweepRow's assembly: it loads one row, or
// one 48-column block of it, into at most thirteen YMM registers, makes
// the whole k-sweep with one b load, multiply and add per four columns
// per k, and stores the row once. That drops the per-k stores, which
// bound the AXPY form on the one store port, and the per-k AXPY call,
// dispatch and row slicing, ≈ 30 % of a CNN fit's profile. A fused
// multi-row register tile lost 2× to the AXPY sweep: several rows of
// a wide output did not fit in registers and so became extra
// destination streams. One row in column blocks always fits, and the
// b-rows it streams are the ones the AXPY sweep streams. Each element
// still takes one rounded multiply and then one rounded add per k,
// exactly as an AXPY lane does, so the two forms are bit-identical.
func matMulAccum(dst, a, b *Matrix) {
	k, n := a.Cols, b.Cols
	for i := 0; i < a.Rows; i++ {
		sweepRow(dst.Data[i*n:i*n+n], a.Data[i*k:], 1, b.Data, n, k)
	}
}

// sweepRow computes di += Σ_kk coef[kk·cs] · bd[kk·bs : kk·bs+len(di)]
// over kk ascending in [0, k), skipping zero coefficients: one
// destination row of a GEMM, whose coefficients are a row of a
// (cs = 1) or a column of it (cs = a.Cols). With AVX2 a row of at
// least four columns runs rowSweepAVX2, which holds it in registers
// for the whole sweep; otherwise it is the sweep of AXPYs, the
// reference the register form matches bit for bit.
func sweepRow(di, coef Vec, cs int, bd Vec, bs, k int) {
	n := len(di)
	if k <= 0 || n == 0 {
		return
	}
	_, _ = coef[(k-1)*cs], bd[(k-1)*bs+n-1]
	if n >= 4 && useAVX2() {
		rowSweepAVX2(&di[0], n, &coef[0], cs, &bd[0], bs, k)
		return
	}
	for kk := 0; kk < k; kk++ {
		if av := coef[kk*cs]; av != 0 {
			AXPYUnchecked(av, bd[kk*bs:kk*bs+n], di)
		}
	}
}

// MatMulTransAInto computes dst = aᵀ·b where a is (k×m) and b is
// (k×n); dst must be (m×n) and must not alias a or b. The sum over k
// (the shared leading dimension — the batch axis in a dW = dYᵀ·X
// gradient) runs in ascending order.
func MatMulTransAInto(dst, a, b *Matrix) error {
	if err := checkTransA(dst, a, b); err != nil {
		return err
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	matMulTransAAccum(dst, a, b)
	return nil
}

// MatMulTransAAccumInto accumulates dst += aᵀ·b (shapes as
// MatMulTransAInto). Because the k-axis is walked in ascending order,
// accumulating a whole batch into a zeroed gradient matrix produces
// bit-identical results to adding the per-sample outer products one
// sample at a time.
func MatMulTransAAccumInto(dst, a, b *Matrix) error {
	if err := checkTransA(dst, a, b); err != nil {
		return err
	}
	matMulTransAAccum(dst, a, b)
	return nil
}

func checkTransA(dst, a, b *Matrix) error {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		return fmt.Errorf("matmulTransA %dx%d by %dx%d into %dx%d: %w",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols, ErrShape)
	}
	return nil
}

// matMulTransAAccum accumulates dst += aᵀ·b with the shared leading
// dimension k (the batch axis) ascending per element — the row sweep
// of matMulAccum with coefficient stride a.Cols (column i of a feeds
// dst row i), which is what makes a whole-batch gradient bit-identical
// to per-sample outer products. The register sweep per row measured
// 2.5–7× faster than a k-outer loop of AXPYs over the rows at every
// width of at least four columns the networks use (8, 15, 56, 64) and
// at 256.
func matMulTransAAccum(dst, a, b *Matrix) {
	k, m, n := a.Rows, a.Cols, b.Cols
	for i := 0; i < m; i++ {
		sweepRow(dst.Data[i*n:i*n+n], a.Data[i:], m, b.Data, n, k)
	}
}

// TransposeInto writes aᵀ into dst; dst must be (a.Cols × a.Rows) and
// must not alias a. Transposing a weight matrix once per batch lets
// the forward GEMM run in the row-sweep form (independent per-element
// accumulations, ~3× the throughput of the dot form on long inner
// dimensions, whose sequential adds are FP-latency-bound) while
// keeping the exact ascending-k summation order of the dot form. The
// copy takes four source rows at a time, so each destination row gets
// a run of four elements per write instead of one; a transpose rounds
// nothing, so the order of the moves never reaches the bits.
func TransposeInto(dst, a *Matrix) error {
	if dst.Rows != a.Cols || dst.Cols != a.Rows {
		return fmt.Errorf("transpose %dx%d into %dx%d: %w", a.Rows, a.Cols, dst.Rows, dst.Cols, ErrShape)
	}
	r, c := a.Rows, a.Cols
	i := 0
	for ; i+4 <= r; i += 4 {
		a0, a1 := a.Data[i*c:i*c+c], a.Data[(i+1)*c:(i+1)*c+c]
		a2, a3 := a.Data[(i+2)*c:(i+2)*c+c], a.Data[(i+3)*c:(i+3)*c+c]
		for j := range a0 {
			d := dst.Data[j*r+i : j*r+i+4 : j*r+i+4]
			d[0], d[1], d[2], d[3] = a0[j], a1[j], a2[j], a3[j]
		}
	}
	for ; i < r; i++ {
		for j, v := range a.Data[i*c : i*c+c] {
			dst.Data[j*r+i] = v
		}
	}
	return nil
}

// Resize reshapes m to rows×cols in place, reusing the backing array
// when its capacity allows — the grow-once pattern behind the batch
// scratch matrices of the training hot path. The data is left
// uninitialized (callers overwrite it fully).
func (m *Matrix) Resize(rows, cols int) error {
	if rows <= 0 || cols <= 0 {
		return fmt.Errorf("resize matrix to %dx%d: %w", rows, cols, ErrShape)
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Data = m.Data[:n]
	m.Rows, m.Cols = rows, cols
	return nil
}
