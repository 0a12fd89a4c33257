package nn

import (
	"fmt"
	"math"

	"dtmsvs/internal/vecmath"
)

// The batch paths are the only forward and backward passes: every
// layer of the CNN compressor and the DDQN Q-network pushes a whole
// minibatch (one sample per matrix row) through forward and backward
// as blocked matrix ops, so a minibatch backward through a Dense layer
// is exactly three GEMMs:
//
//	Y  = X·Wᵀ + b      (forward)
//	dX = dY·W           (input gradient)
//	dW = dYᵀ·X          (weight gradient, accumulated)
//
// Inference runs the same ForwardBatch on a batch of one or more
// samples. The vecmath kernels accumulate every element's inner sum in
// ascending index order, and no sum crosses rows, so each forward row
// is bit-identical to a one-row ForwardBatch of that sample, whatever
// else shares the batch. A B-row BackwardBatch accumulates dW and db
// exactly as B one-row batches in sample order would. (Conv1D goes
// through an im2col window matrix whose GEMM sums over channel and tap
// in one ascending run.)
//
// Returned matrices are layer-owned scratch overwritten by the next
// call, and all scratch grows once and is reused, so steady-state
// batched training does not touch the heap.

// ensureMat resizes a lazily allocated layer-owned scratch matrix,
// reusing its backing array whenever capacity allows.
func ensureMat(m **vecmath.Matrix, rows, cols int) (*vecmath.Matrix, error) {
	if *m == nil {
		*m = &vecmath.Matrix{}
	}
	if err := (*m).Resize(rows, cols); err != nil {
		return nil, err
	}
	return *m, nil
}

// ensureInts returns (*buf)[:n], reallocating only when capacity is
// short: the grow-once pattern of ensureMat for index scratch.
func ensureInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// ---------------------------------------------------------------- Dense

// ForwardBatch maps every row of x through the layer in one GEMM:
// out = x·Wᵀ + b, computed as x·(Wᵀ) against a transposed weight
// scratch so the kernel runs in its fast row-sweep form. Each output sums
// its products in ascending input index and then adds the bias, the
// order of a plain dot product plus bias, so every row is
// bit-identical to a one-row ForwardBatch of that sample. The input
// batch is retained (by reference) for BackwardBatch. Shapes: x is
// (n × InDim), the returned layer-owned matrix is (n × OutDim).
func (d *Dense) ForwardBatch(x *vecmath.Matrix) (*vecmath.Matrix, error) {
	if x == nil || x.Cols != d.InDim || x.Rows <= 0 {
		return nil, fmt.Errorf("dense forward batch got %dx%d want ?x%d: %w",
			matRows(x), matCols(x), d.InDim, ErrShape)
	}
	out, err := ensureMat(&d.bOut, x.Rows, d.OutDim)
	if err != nil {
		return nil, err
	}
	wT, err := ensureMat(&d.wT, d.InDim, d.OutDim)
	if err != nil {
		return nil, err
	}
	if err := vecmath.TransposeInto(wT, d.w); err != nil {
		return nil, err
	}
	if err := vecmath.MatMulInto(out, x, wT); err != nil {
		return nil, err
	}
	for r := 0; r < out.Rows; r++ {
		vecmath.AXPYUnchecked(1, d.b, out.Row(r))
	}
	d.bIn = x
	return out, nil
}

// BackwardBatch consumes the loss gradient w.r.t. the batched output
// (n × OutDim), accumulates dW = dYᵀ·X and db = Σ rows dY — in
// ascending sample order, bit-identical to n one-row BackwardBatch
// calls — and returns the layer-owned input gradient dX = dY·W
// (n × InDim).
func (d *Dense) BackwardBatch(grad *vecmath.Matrix) (*vecmath.Matrix, error) {
	if err := d.accumGradsBatch(grad); err != nil {
		return nil, err
	}
	dx, err := ensureMat(&d.bDx, grad.Rows, d.InDim)
	if err != nil {
		return nil, err
	}
	if err := vecmath.MatMulInto(dx, grad, d.w); err != nil {
		return nil, err
	}
	return dx, nil
}

// accumGradsBatch is BackwardBatch's parameter half: dW and db only.
func (d *Dense) accumGradsBatch(grad *vecmath.Matrix) error {
	if grad == nil || grad.Cols != d.OutDim {
		return fmt.Errorf("dense backward batch got %dx%d want ?x%d: %w",
			matRows(grad), matCols(grad), d.OutDim, ErrShape)
	}
	if d.bIn == nil || d.bIn.Rows != grad.Rows {
		return fmt.Errorf("dense backward batch before forward batch: %w", ErrShape)
	}
	if err := vecmath.MatMulTransAAccumInto(d.gw, grad, d.bIn); err != nil {
		return err
	}
	for r := 0; r < grad.Rows; r++ {
		vecmath.AXPYUnchecked(1, grad.Row(r), d.gb)
	}
	return nil
}

func matRows(m *vecmath.Matrix) int {
	if m == nil {
		return 0
	}
	return m.Rows
}

func matCols(m *vecmath.Matrix) int {
	if m == nil {
		return 0
	}
	return m.Cols
}

// ----------------------------------------------------- activations

// ForwardBatch implements Layer.
func (r *ReLU) ForwardBatch(x *vecmath.Matrix) (*vecmath.Matrix, error) {
	if x == nil || x.Rows <= 0 {
		return nil, fmt.Errorf("relu forward batch of empty input: %w", ErrShape)
	}
	out, err := ensureMat(&r.bOut, x.Rows, x.Cols)
	if err != nil {
		return nil, err
	}
	// out = v when v > 0, else +0 (NaN included), as a bit mask the
	// compiler sets from a flag rather than a branch activations make
	// a coin toss.
	od := out.Data[:len(x.Data)]
	for i, v := range x.Data {
		var keep uint64
		if v > 0 {
			keep = ^uint64(0)
		}
		od[i] = math.Float64frombits(math.Float64bits(v) & keep)
	}
	return out, nil
}

// BackwardBatch implements Layer.
func (r *ReLU) BackwardBatch(grad *vecmath.Matrix) (*vecmath.Matrix, error) {
	if grad == nil || r.bOut == nil || grad.Rows != r.bOut.Rows || grad.Cols != r.bOut.Cols {
		return nil, fmt.Errorf("relu backward batch got %dx%d want %dx%d: %w",
			matRows(grad), matCols(grad), matRows(r.bOut), matCols(r.bOut), ErrShape)
	}
	dx, err := ensureMat(&r.bDx, grad.Rows, grad.Cols)
	if err != nil {
		return nil, err
	}
	// dx = g where the output is positive, else +0, through the bit
	// mask ForwardBatch uses.
	out, dd := r.bOut.Data[:len(grad.Data)], dx.Data[:len(grad.Data)]
	for i, g := range grad.Data {
		var keep uint64
		if out[i] > 0 {
			keep = ^uint64(0)
		}
		dd[i] = math.Float64frombits(math.Float64bits(g) & keep)
	}
	return dx, nil
}

// ForwardBatch implements Layer.
func (t *Tanh) ForwardBatch(x *vecmath.Matrix) (*vecmath.Matrix, error) {
	if x == nil || x.Rows <= 0 {
		return nil, fmt.Errorf("tanh forward batch of empty input: %w", ErrShape)
	}
	out, err := ensureMat(&t.bOut, x.Rows, x.Cols)
	if err != nil {
		return nil, err
	}
	for i, v := range x.Data {
		out.Data[i] = math.Tanh(v)
	}
	return out, nil
}

// BackwardBatch implements Layer.
func (t *Tanh) BackwardBatch(grad *vecmath.Matrix) (*vecmath.Matrix, error) {
	if grad == nil || t.bOut == nil || grad.Rows != t.bOut.Rows || grad.Cols != t.bOut.Cols {
		return nil, fmt.Errorf("tanh backward batch got %dx%d want %dx%d: %w",
			matRows(grad), matCols(grad), matRows(t.bOut), matCols(t.bOut), ErrShape)
	}
	dx, err := ensureMat(&t.bDx, grad.Rows, grad.Cols)
	if err != nil {
		return nil, err
	}
	for i, g := range grad.Data {
		y := t.bOut.Data[i]
		dx.Data[i] = g * (1 - y*y)
	}
	return dx, nil
}

// ------------------------------------------------------- MaxPool1D

// ForwardBatch implements Layer.
func (p *MaxPool1D) ForwardBatch(x *vecmath.Matrix) (*vecmath.Matrix, error) {
	if x == nil || x.Rows <= 0 || x.Cols != p.Ch*p.InLen {
		return nil, fmt.Errorf("maxpool forward batch got %dx%d want ?x%d: %w",
			matRows(x), matCols(x), p.Ch*p.InLen, ErrShape)
	}
	outLen := p.OutLen()
	out, err := ensureMat(&p.bOut, x.Rows, p.Ch*outLen)
	if err != nil {
		return nil, err
	}
	arg := ensureInts(&p.bArg, x.Rows*p.Ch*outLen)
	for s := 0; s < x.Rows; s++ {
		xr := x.Row(s)
		or := out.Row(s)
		ar := arg[s*p.Ch*outLen : (s+1)*p.Ch*outLen]
		for c := 0; c < p.Ch; c++ {
			src := xr[c*p.InLen : (c+1)*p.InLen]
			for t := 0; t < outLen; t++ {
				base := t * p.Window
				best := base
				for j := base + 1; j < base+p.Window; j++ {
					// best = j when src[j] > src[best], written so the
					// compiler sets a flag instead of predicting a
					// branch that activations make a coin toss.
					gt := 0
					if src[j] > src[best] {
						gt = 1
					}
					best += gt * (j - best)
				}
				or[c*outLen+t] = src[best]
				ar[c*outLen+t] = c*p.InLen + best
			}
		}
	}
	return out, nil
}

// BackwardBatch implements Layer.
func (p *MaxPool1D) BackwardBatch(grad *vecmath.Matrix) (*vecmath.Matrix, error) {
	outLen := p.OutLen()
	if grad == nil || p.bOut == nil || grad.Rows != p.bOut.Rows || grad.Cols != p.Ch*outLen {
		return nil, fmt.Errorf("maxpool backward batch got %dx%d want %dx%d: %w",
			matRows(grad), matCols(grad), matRows(p.bOut), p.Ch*outLen, ErrShape)
	}
	dx, err := ensureMat(&p.bDx, grad.Rows, p.Ch*p.InLen)
	if err != nil {
		return nil, err
	}
	for i := range dx.Data {
		dx.Data[i] = 0
	}
	for s := 0; s < grad.Rows; s++ {
		gr := grad.Row(s)
		dr := dx.Row(s)
		ar := p.bArg[s*p.Ch*outLen : (s+1)*p.Ch*outLen]
		for i, g := range gr {
			dr[ar[i]] += g
		}
	}
	return dx, nil
}

// --------------------------------------------------------- Conv1D

// colWidth is the im2col row width: one conv receptive field,
// flattened channel-major.
func (c *Conv1D) colWidth() int { return c.InCh * c.Kernel }

// fillWFlat copies the per-filter kernels into the flattened (Filters
// × InCh·Kernel) weight matrix the GEMM kernels consume.
func (c *Conv1D) fillWFlat() (*vecmath.Matrix, error) {
	wf, err := ensureMat(&c.wflat, c.Filters, c.colWidth())
	if err != nil {
		return nil, err
	}
	for f := 0; f < c.Filters; f++ {
		row := wf.Row(f)
		for ch := 0; ch < c.InCh; ch++ {
			copy(row[ch*c.Kernel:(ch+1)*c.Kernel], c.w[f][ch])
		}
	}
	return wf, nil
}

// fillWFlatT is fillWFlat transposed (InCh·Kernel × Filters), feeding
// the AXPY-form forward GEMM (same ascending-tap summation order as
// the dot form).
func (c *Conv1D) fillWFlatT() (*vecmath.Matrix, error) {
	wt, err := ensureMat(&c.wflatT, c.colWidth(), c.Filters)
	if err != nil {
		return nil, err
	}
	for f := 0; f < c.Filters; f++ {
		for ch := 0; ch < c.InCh; ch++ {
			kern := c.w[f][ch]
			for j, v := range kern {
				wt.Data[(ch*c.Kernel+j)*c.Filters+f] = v
			}
		}
	}
	return wt, nil
}

// ForwardBatch implements Layer via im2col: every output position
// of every sample becomes one row of a window matrix, and the whole
// batch convolution is a single (B·outLen × InCh·Kernel)·(InCh·Kernel
// × Filters) GEMM.
func (c *Conv1D) ForwardBatch(x *vecmath.Matrix) (*vecmath.Matrix, error) {
	if x == nil || x.Rows <= 0 || x.Cols != c.InCh*c.InLen {
		return nil, fmt.Errorf("conv1d forward batch got %dx%d want ?x%d: %w",
			matRows(x), matCols(x), c.InCh*c.InLen, ErrShape)
	}
	outLen := c.OutLen()
	cw := c.colWidth()
	xcol, err := ensureMat(&c.xcol, x.Rows*outLen, cw)
	if err != nil {
		return nil, err
	}
	for s := 0; s < x.Rows; s++ {
		xr := x.Row(s)
		for t := 0; t < outLen; t++ {
			row := xcol.Row(s*outLen + t)
			base := t * c.Stride
			for ch := 0; ch < c.InCh; ch++ {
				copy(row[ch*c.Kernel:(ch+1)*c.Kernel], xr[ch*c.InLen+base:ch*c.InLen+base+c.Kernel])
			}
		}
	}
	wt, err := c.fillWFlatT()
	if err != nil {
		return nil, err
	}
	ycol, err := ensureMat(&c.ycol, x.Rows*outLen, c.Filters)
	if err != nil {
		return nil, err
	}
	if err := vecmath.MatMulInto(ycol, xcol, wt); err != nil {
		return nil, err
	}
	out, err := ensureMat(&c.bOut, x.Rows, c.Filters*outLen)
	if err != nil {
		return nil, err
	}
	for s := 0; s < x.Rows; s++ {
		or := out.Row(s)
		for t := 0; t < outLen; t++ {
			yr := ycol.Row(s*outLen + t)
			for f := 0; f < c.Filters; f++ {
				or[f*outLen+t] = yr[f] + c.b[f]
			}
		}
	}
	return out, nil
}

// BackwardBatch implements Layer: the weight gradient is one
// dYᵀ·Xcol GEMM (scatter-added into the per-filter kernels) and the
// input gradient is one dY·W GEMM followed by a deterministic col2im
// scatter in ascending (sample, position) order.
func (c *Conv1D) BackwardBatch(grad *vecmath.Matrix) (*vecmath.Matrix, error) {
	if err := c.accumGradsBatch(grad); err != nil {
		return nil, err
	}
	// Input gradient: dXcol = dY·W, then col2im scatter-add.
	outLen := c.OutLen()
	wf, err := c.fillWFlat()
	if err != nil {
		return nil, err
	}
	dxcol, err := ensureMat(&c.dxcol, grad.Rows*outLen, c.colWidth())
	if err != nil {
		return nil, err
	}
	if err := vecmath.MatMulInto(dxcol, c.dycol, wf); err != nil {
		return nil, err
	}
	dx, err := ensureMat(&c.bDx, grad.Rows, c.InCh*c.InLen)
	if err != nil {
		return nil, err
	}
	for i := range dx.Data {
		dx.Data[i] = 0
	}
	for s := 0; s < grad.Rows; s++ {
		dr := dx.Row(s)
		for t := 0; t < outLen; t++ {
			row := dxcol.Row(s*outLen + t)
			base := t * c.Stride
			for ch := 0; ch < c.InCh; ch++ {
				vecmath.AXPYUnchecked(1, row[ch*c.Kernel:(ch+1)*c.Kernel], dr[ch*c.InLen+base:ch*c.InLen+base+c.Kernel])
			}
		}
	}
	return dx, nil
}

// accumGradsBatch is BackwardBatch's parameter half: it gathers the
// output gradient into im2col layout (kept in c.dycol for the input
// half) and accumulates the bias and weight gradients.
func (c *Conv1D) accumGradsBatch(grad *vecmath.Matrix) error {
	outLen := c.OutLen()
	if grad == nil || grad.Cols != c.Filters*outLen {
		return fmt.Errorf("conv1d backward batch got %dx%d want ?x%d: %w",
			matRows(grad), matCols(grad), c.Filters*outLen, ErrShape)
	}
	if c.xcol == nil || c.xcol.Rows != grad.Rows*outLen {
		return fmt.Errorf("conv1d backward batch before forward batch: %w", ErrShape)
	}
	// Gather the output gradient into im2col layout: row (s,t), col f.
	dycol, err := ensureMat(&c.dycol, grad.Rows*outLen, c.Filters)
	if err != nil {
		return err
	}
	for s := 0; s < grad.Rows; s++ {
		gr := grad.Row(s)
		for t := 0; t < outLen; t++ {
			dr := dycol.Row(s*outLen + t)
			for f := 0; f < c.Filters; f++ {
				dr[f] = gr[f*outLen+t]
			}
		}
	}
	// Bias gradient: ascending (sample, position) accumulation.
	for r := 0; r < dycol.Rows; r++ {
		vecmath.AXPYUnchecked(1, dycol.Row(r), c.gb)
	}
	// Weight gradient: dW = dYᵀ·Xcol, then scatter-add into the
	// per-filter per-channel kernels.
	gwf, err := ensureMat(&c.gwflat, c.Filters, c.colWidth())
	if err != nil {
		return err
	}
	if err := vecmath.MatMulTransAInto(gwf, dycol, c.xcol); err != nil {
		return err
	}
	for f := 0; f < c.Filters; f++ {
		row := gwf.Row(f)
		for ch := 0; ch < c.InCh; ch++ {
			vecmath.AXPYUnchecked(1, row[ch*c.Kernel:(ch+1)*c.Kernel], c.gw[f][ch])
		}
	}
	return nil
}

// -------------------------------------------------------- Network

// ForwardBatch runs all layers on a whole minibatch (one sample per
// row).
func (n *Network) ForwardBatch(x *vecmath.Matrix) (*vecmath.Matrix, error) {
	cur := x
	for i, l := range n.layers {
		out, err := l.ForwardBatch(cur)
		if err != nil {
			return nil, fmt.Errorf("forward batch layer %d: %w", i, err)
		}
		cur = out
	}
	return cur, nil
}

// BackwardBatch propagates a batched output gradient through all
// layers in reverse, accumulating parameter gradients, and returns the
// gradient w.r.t. the network input batch.
func (n *Network) BackwardBatch(grad *vecmath.Matrix) (*vecmath.Matrix, error) {
	cur := grad
	for i := len(n.layers) - 1; i >= 0; i-- {
		out, err := n.layers[i].BackwardBatch(cur)
		if err != nil {
			return nil, fmt.Errorf("backward batch layer %d: %w", i, err)
		}
		cur = out
	}
	return cur, nil
}

// gradAccumulator is implemented by parameter layers whose batch
// backward can accumulate their parameter gradients without also
// computing the input gradient.
type gradAccumulator interface {
	accumGradsBatch(grad *vecmath.Matrix) error
}

var (
	_ gradAccumulator = (*Dense)(nil)
	_ gradAccumulator = (*Conv1D)(nil)
)

// BackwardBatchParams is BackwardBatch for a network whose input is
// data, not another layer's output: it accumulates the same parameter
// gradients, bit for bit, but returns no input gradient. The pass
// stops at the first layer with parameters, which skips its own input
// gradient — one dY·W GEMM for Dense, that GEMM plus the col2im
// scatter for Conv1D.
func (n *Network) BackwardBatchParams(grad *vecmath.Matrix) error {
	cur := grad
	for i := len(n.layers) - 1; i >= n.gradFrom; i-- {
		l := n.layers[i]
		if ga, ok := l.(gradAccumulator); ok && i == n.gradFrom {
			if err := ga.accumGradsBatch(cur); err != nil {
				return fmt.Errorf("backward batch layer %d: %w", i, err)
			}
			return nil
		}
		out, err := l.BackwardBatch(cur)
		if err != nil {
			return fmt.Errorf("backward batch layer %d: %w", i, err)
		}
		cur = out
	}
	return nil
}
