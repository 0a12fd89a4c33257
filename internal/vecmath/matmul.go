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
// reused while they are hot in cache. Which form a destination row
// takes — an AXPY sweep, or for outputs of at most eight columns a
// sweep with the row held in registers — depends only on the shape,
// and both round each product and each add on their own in ascending
// k, so the form never reaches the bits (see matMulAccum).

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
// Wide outputs run each destination row as an ascending-k sweep of
// AXPYs against the streamed b-rows, the store-light form: a fused
// multi-row register tile lost 2× to it on wide outputs, whose rows do
// not fit in registers and so became extra destination streams.
// Outputs of at most narrowCols columns (the CNN's 8 filters and 8-wide
// code head, the Q-network's action head) fit: their kernels load a
// destination row into registers once, make the same ascending-k sweep
// with the same zero-coefficient skip, and store it once. Each element
// still takes one rounded multiply and then one rounded add per k,
// exactly as an AXPY lane does, so the two forms are bit-identical.
func matMulAccum(dst, a, b *Matrix) {
	matMulAccumRows(dst, a, b, 0, a.Rows)
}

// narrowCols is the widest output the register kernels take.
const narrowCols = 8

// matMulAccumRows is matMulAccum restricted to dst rows [lo, hi) —
// the row-block unit of the pool-parallel path. Each dst row's sums
// are complete within one call, so any partition of the row range
// produces bit-identical results.
func matMulAccumRows(dst, a, b *Matrix, lo, hi int) {
	switch {
	case b.Cols == narrowCols:
		matMulAccum8(dst, a, b, lo, hi)
		return
	case b.Cols < narrowCols:
		matMulAccumNarrow(dst, a, b, lo, hi)
		return
	}
	k := a.Cols
	for i := lo; i < hi; i++ {
		ai := a.Row(i)
		di := dst.Row(i)
		for kk := 0; kk < k; kk++ {
			if av := ai[kk]; av != 0 {
				AXPYUnchecked(av, b.Row(kk), di)
			}
		}
	}
}

// matMulAccum8 is matMulAccumRows for exactly 8 output columns, the
// destination row held in eight registers. The float64 conversions
// round every product on its own, so no target may fuse a multiply
// into its add: the AXPY form it must match rounds twice.
func matMulAccum8(dst, a, b *Matrix, lo, hi int) {
	k := a.Cols
	bd := b.Data[:k*8]
	for i := lo; i < hi; i++ {
		ai := a.Data[i*k : i*k+k]
		di := dst.Data[i*8 : i*8+8 : i*8+8]
		d0, d1, d2, d3, d4, d5, d6, d7 := di[0], di[1], di[2], di[3], di[4], di[5], di[6], di[7]
		for kk, av := range ai {
			if av == 0 {
				continue
			}
			br := bd[kk*8 : kk*8+8 : kk*8+8]
			d0 += float64(av * br[0])
			d1 += float64(av * br[1])
			d2 += float64(av * br[2])
			d3 += float64(av * br[3])
			d4 += float64(av * br[4])
			d5 += float64(av * br[5])
			d6 += float64(av * br[6])
			d7 += float64(av * br[7])
		}
		di[0], di[1], di[2], di[3], di[4], di[5], di[6], di[7] = d0, d1, d2, d3, d4, d5, d6, d7
	}
}

// matMulAccumNarrow is matMulAccumRows for 1 to 7 output columns: the
// register kernel of matMulAccum8 with one accumulator per column in
// use, reached through fallthrough switches on the width.
func matMulAccumNarrow(dst, a, b *Matrix, lo, hi int) {
	n, k := b.Cols, a.Cols
	bd := b.Data[:k*n]
	for i := lo; i < hi; i++ {
		ai := a.Data[i*k : i*k+k]
		di := dst.Data[i*n : i*n+n]
		var d0, d1, d2, d3, d4, d5, d6 float64
		switch n {
		case 7:
			d6 = di[6]
			fallthrough
		case 6:
			d5 = di[5]
			fallthrough
		case 5:
			d4 = di[4]
			fallthrough
		case 4:
			d3 = di[3]
			fallthrough
		case 3:
			d2 = di[2]
			fallthrough
		case 2:
			d1 = di[1]
			fallthrough
		case 1:
			d0 = di[0]
		}
		for kk, av := range ai {
			if av == 0 {
				continue
			}
			br := bd[kk*n : kk*n+n]
			switch n {
			case 7:
				d6 += float64(av * br[6])
				fallthrough
			case 6:
				d5 += float64(av * br[5])
				fallthrough
			case 5:
				d4 += float64(av * br[4])
				fallthrough
			case 4:
				d3 += float64(av * br[3])
				fallthrough
			case 3:
				d2 += float64(av * br[2])
				fallthrough
			case 2:
				d1 += float64(av * br[1])
				fallthrough
			case 1:
				d0 += float64(av * br[0])
			}
		}
		switch n {
		case 7:
			di[6] = d6
			fallthrough
		case 6:
			di[5] = d5
			fallthrough
		case 5:
			di[4] = d4
			fallthrough
		case 4:
			di[3] = d3
			fallthrough
		case 3:
			di[2] = d2
			fallthrough
		case 2:
			di[1] = d1
			fallthrough
		case 1:
			di[0] = d0
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
// dimension k (the batch axis) ascending per element — the same
// AXPY sweep as matMulAccum with the k-axis outermost, which is what
// makes a whole-batch gradient bit-identical to per-sample outer
// products.
func matMulTransAAccum(dst, a, b *Matrix) {
	matMulTransAAccumRows(dst, a, b, 0, a.Cols)
}

// matMulTransAAccumRows is matMulTransAAccum restricted to dst rows
// [lo, hi) (dst row i is column i of a). The k-axis still runs
// outermost and ascending, so each owned element accumulates in
// exactly the sequential order no matter how the rows are
// partitioned.
func matMulTransAAccumRows(dst, a, b *Matrix, lo, hi int) {
	k := a.Rows
	for kk := 0; kk < k; kk++ {
		ak := a.Row(kk)
		bk := b.Row(kk)
		for i := lo; i < hi; i++ {
			if av := ak[i]; av != 0 {
				AXPYUnchecked(av, bk, dst.Row(i))
			}
		}
	}
}

// TransposeInto writes aᵀ into dst; dst must be (a.Cols × a.Rows) and
// must not alias a. Transposing a weight matrix once per batch lets
// the forward GEMM run in the AXPY form (independent per-element
// accumulations, ~3× the throughput of the dot form on long inner
// dimensions, whose sequential adds are FP-latency-bound) while
// keeping the exact ascending-k summation order of the dot form.
func TransposeInto(dst, a *Matrix) error {
	if dst.Rows != a.Cols || dst.Cols != a.Rows {
		return fmt.Errorf("transpose %dx%d into %dx%d: %w", a.Rows, a.Cols, dst.Rows, dst.Cols, ErrShape)
	}
	for i := 0; i < a.Rows; i++ {
		ai := a.Row(i)
		for j, v := range ai {
			dst.Data[j*dst.Cols+i] = v
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
