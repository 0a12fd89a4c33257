package nn

import (
	"math"
	"math/rand"
	"testing"

	"dtmsvs/internal/vecmath"
)

func cloneGrads(layers []Layer) [][]float64 {
	var out [][]float64
	for _, l := range layers {
		for _, p := range l.Params() {
			out = append(out, append([]float64(nil), p.G...))
		}
	}
	return out
}

// oneRowBatches runs every row of x (with the matching row of g)
// through m as its own one-row ForwardBatch/BackwardBatch, in
// ascending row order, accumulating parameter gradients across the
// rows. It returns the stacked forward outputs and input gradients.
func oneRowBatches(t *testing.T, m batchPass, x, g *vecmath.Matrix) (out, dx *vecmath.Matrix) {
	t.Helper()
	for s := 0; s < x.Rows; s++ {
		xs := vecmath.MustMatrix(1, x.Cols)
		copy(xs.Data, x.Row(s))
		gs := vecmath.MustMatrix(1, g.Cols)
		copy(gs.Data, g.Row(s))
		o, err := m.ForwardBatch(xs)
		if err != nil {
			t.Fatal(err)
		}
		if out == nil {
			out = vecmath.MustMatrix(x.Rows, o.Cols)
		}
		copy(out.Row(s), o.Data)
		d, err := m.BackwardBatch(gs)
		if err != nil {
			t.Fatal(err)
		}
		if dx == nil {
			dx = vecmath.MustMatrix(x.Rows, d.Cols)
		}
		copy(dx.Row(s), d.Data)
	}
	return out, dx
}

// TestDenseBatchMatchesPerSample pins the batched Dense contract: one
// B-row ForwardBatch/BackwardBatch gives, bit for bit, the forward
// rows, input-gradient rows and accumulated dW/db of B one-row batches
// run in ascending sample order — the batch sums its samples in that
// order.
func TestDenseBatchMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const batch, inDim, outDim = 7, 13, 9
	dBatch, err := NewDense(inDim, outDim, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	dSingle, err := NewDense(inDim, outDim, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	x, g := randMatrix(batch, inDim, rng), randMatrix(batch, outDim, rng)

	out, err := dBatch.ForwardBatch(x)
	if err != nil {
		t.Fatal(err)
	}
	dx, err := dBatch.BackwardBatch(g)
	if err != nil {
		t.Fatal(err)
	}
	wantOut, wantDx := oneRowBatches(t, dSingle, x, g)
	for i := range wantOut.Data {
		if math.Float64bits(out.Data[i]) != math.Float64bits(wantOut.Data[i]) {
			t.Fatalf("forward element %d: %v want %v", i, out.Data[i], wantOut.Data[i])
		}
	}
	for i := range wantDx.Data {
		if math.Float64bits(dx.Data[i]) != math.Float64bits(wantDx.Data[i]) {
			t.Fatalf("dx element %d: %v want %v", i, dx.Data[i], wantDx.Data[i])
		}
	}
	bp, sp := dBatch.Params(), dSingle.Params()
	for pi := range bp {
		for j := range bp[pi].G {
			if math.Float64bits(bp[pi].G[j]) != math.Float64bits(sp[pi].G[j]) {
				t.Fatalf("param %d grad %d: %v want %v (a batch's dW must equal its one-row batches summed in order)",
					pi, j, bp[pi].G[j], sp[pi].G[j])
			}
		}
	}
}

// TestNetworkBatchGradientMatchesPerSample runs the full CNN-compressor
// stack (conv → relu → pool → dense → tanh) as one 6-row batch and as
// six one-row batches: the accumulated parameter gradients must agree.
// The conv layer sums each batch's weight gradient in one GEMM chain
// before adding it to the accumulator, so six one-row batches group
// the additions differently; the comparison uses a tight relative
// tolerance instead of bit equality.
func TestNetworkBatchGradientMatchesPerSample(t *testing.T) {
	build := func() *Network {
		rng := rand.New(rand.NewSource(3))
		conv, err := NewConv1D(3, 12, 4, 3, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := NewMaxPool1D(4, conv.OutLen(), 2)
		if err != nil {
			t.Fatal(err)
		}
		head, err := NewDense(4*pool.OutLen(), 5, rng)
		if err != nil {
			t.Fatal(err)
		}
		net, err := NewNetwork(3*12, conv, &ReLU{}, pool, head, &Tanh{})
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	netB, netS := build(), build()
	rng := rand.New(rand.NewSource(4))
	const batch = 6
	x, g := randMatrix(batch, 3*12, rng), randMatrix(batch, 5, rng)

	if _, err := netB.ForwardBatch(x); err != nil {
		t.Fatal(err)
	}
	if _, err := netB.BackwardBatch(g); err != nil {
		t.Fatal(err)
	}
	oneRowBatches(t, netS, x, g)
	pb, ps := netB.Params(), netS.Params()
	const tol = 1e-12
	for pi := range pb {
		for j := range pb[pi].G {
			got, want := pb[pi].G[j], ps[pi].G[j]
			if diff := math.Abs(got - want); diff > tol*math.Max(1, math.Abs(want)) {
				t.Fatalf("param %d grad %d: %v want %v (diff %v)", pi, j, got, want, diff)
			}
		}
	}
}

// naiveDense is the reference a Dense row is held to bit for bit: each
// output is the ascending-index dot product of its weight row with x,
// plus the bias.
func naiveDense(d *Dense, x vecmath.Vec) vecmath.Vec {
	out := make(vecmath.Vec, d.OutDim)
	for o := range out {
		var s float64
		for i, xi := range x {
			s += d.w.At(o, i) * xi
		}
		out[o] = s + d.b[o]
	}
	return out
}

// naiveConv is the textbook valid convolution: bias plus, channel by
// channel, the taps of each window.
func naiveConv(c *Conv1D, x vecmath.Vec) vecmath.Vec {
	outLen := c.OutLen()
	out := make(vecmath.Vec, c.Filters*outLen)
	for f := 0; f < c.Filters; f++ {
		for t := 0; t < outLen; t++ {
			s := c.b[f]
			for ch := 0; ch < c.InCh; ch++ {
				for j, kj := range c.w[f][ch] {
					s += x[ch*c.InLen+t*c.Stride+j] * kj
				}
			}
			out[f*outLen+t] = s
		}
	}
	return out
}

// TestBatchForwardMatchesPerSampleForward pins the one forward pass on
// the stacks the engines run: the compressor encoder (conv → relu →
// pool → dense → tanh), the DDQN Q-network (8-64-64-9) and the
// compressor decoder (8-56-80). Every row of a 9-row ForwardBatch must
// equal a one-row ForwardBatch of that sample bit for bit, so a sample
// is encoded and scored the same whatever shares its batch. Layer by
// layer, every Dense row must also equal naiveDense bit for bit, and
// every Conv1D row must equal naiveConv within 1e-12: the im2col GEMM
// sums channel and tap in one run, the loop adds each channel's taps
// in turn.
func TestBatchForwardMatchesPerSampleForward(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mlp := func(widths ...int) *Network {
		var layers []Layer
		for i := 0; i+1 < len(widths); i++ {
			if i > 0 {
				layers = append(layers, &ReLU{})
			}
			d, err := NewDense(widths[i], widths[i+1], rng)
			if err != nil {
				t.Fatal(err)
			}
			layers = append(layers, d)
		}
		net, err := NewNetwork(widths[0], layers...)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	for _, tc := range []struct {
		name string
		net  *Network
		in   int
	}{
		{"ddqn", mlp(8, 64, 64, 9), 8},
		{"decoder", mlp(8, 56, 80), 8},
		{"encoder", buildBatchNet(t, rng), 5 * 16},
	} {
		x := randMatrix(9, tc.in, rng)
		outOwned, err := tc.net.ForwardBatch(x)
		if err != nil {
			t.Fatal(err)
		}
		out := outOwned.Clone()
		for s := 0; s < x.Rows; s++ {
			for j, w := range forwardOne(t, tc.net, x.Row(s)) {
				if got := out.At(s, j); math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("%s row %d col %d: 9-row batch %v, one-row batch %v", tc.name, s, j, got, w)
				}
			}
		}

		cur := x
		for li, l := range tc.net.Layers() {
			lo, err := l.ForwardBatch(cur)
			if err != nil {
				t.Fatal(err)
			}
			next := lo.Clone()
			for s := 0; s < cur.Rows; s++ {
				var want vecmath.Vec
				tol := 0.0
				switch l := l.(type) {
				case *Dense:
					want = naiveDense(l, cur.Row(s))
				case *Conv1D:
					want, tol = naiveConv(l, cur.Row(s)), 1e-12
				default:
					continue
				}
				for j, w := range want {
					got := next.At(s, j)
					bad := math.Float64bits(got) != math.Float64bits(w)
					if tol > 0 {
						bad = math.Abs(got-w) > tol*math.Max(1, math.Abs(w))
					}
					if bad {
						t.Fatalf("%s layer %d row %d col %d: ForwardBatch %v, naive %v", tc.name, li, s, j, got, w)
					}
				}
			}
			cur = next
		}
	}
}

// TestBackwardBatchBeforeForwardErrors pins the priming contract: a
// BackwardBatch needs a ForwardBatch of the same batch size first.
func TestBackwardBatchBeforeForwardErrors(t *testing.T) {
	d, err := NewDense(4, 3, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.BackwardBatch(vecmath.MustMatrix(2, 3)); err == nil {
		t.Fatal("BackwardBatch before ForwardBatch must error")
	}
	if _, err := d.ForwardBatch(vecmath.MustMatrix(2, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.BackwardBatch(vecmath.MustMatrix(3, 3)); err == nil {
		t.Fatal("BackwardBatch of a different batch size must error")
	}
	if _, err := d.BackwardBatch(vecmath.MustMatrix(2, 3)); err != nil {
		t.Fatalf("BackwardBatch after ForwardBatch: %v", err)
	}
}

// TestNetworkBatchTrainStepAllocFree is the allocation gate for the
// batched training hot path over the compressor stack: after the
// scratch is grown once, a steady-state batched forward+backward must
// not touch the heap.
func TestNetworkBatchTrainStepAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	conv, err := NewConv1D(5, 16, 8, 3, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewMaxPool1D(8, conv.OutLen(), 2)
	if err != nil {
		t.Fatal(err)
	}
	head, err := NewDense(8*pool.OutLen(), 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(5*16, conv, &ReLU{}, pool, head, &Tanh{})
	if err != nil {
		t.Fatal(err)
	}
	x := vecmath.MustMatrix(8, 5*16)
	grad := vecmath.MustMatrix(8, 8)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range grad.Data {
		grad.Data[i] = rng.NormFloat64()
	}
	// Prime scratch.
	if _, err := net.ForwardBatch(x); err != nil {
		t.Fatal(err)
	}
	if _, err := net.BackwardBatch(grad); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		net.ZeroGrads()
		if _, err := net.ForwardBatch(x); err != nil {
			t.Fatal(err)
		}
		if _, err := net.BackwardBatch(grad); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("batched forward+backward allocates %v per run", n)
	}
}

// TestBackwardBatchParamsSkipsInputGrad: on the compressor's encoder
// stack, BackwardBatchParams accumulates the same parameter gradients
// as BackwardBatch, bit for bit, and never builds the first layer's
// input gradient. Layers in front of the first parameter layer are not
// visited at all.
func TestBackwardBatchParamsSkipsInputGrad(t *testing.T) {
	build := func() (*Network, *Conv1D, *Tanh) {
		rng := rand.New(rand.NewSource(5))
		conv, err := NewConv1D(3, 12, 4, 3, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := NewMaxPool1D(4, conv.OutLen(), 2)
		if err != nil {
			t.Fatal(err)
		}
		head, err := NewDense(4*pool.OutLen(), 5, rng)
		if err != nil {
			t.Fatal(err)
		}
		front := &Tanh{}
		net, err := NewNetwork(36, front, conv, &ReLU{}, pool, head)
		if err != nil {
			t.Fatal(err)
		}
		return net, conv, front
	}
	full, _, _ := build()
	skip, conv, front := build()
	rng := rand.New(rand.NewSource(6))
	x, g := randMatrix(6, 36, rng), randMatrix(6, 5, rng)
	for _, n := range []*Network{full, skip} {
		if _, err := n.ForwardBatch(x); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := full.BackwardBatch(g); err != nil {
		t.Fatal(err)
	}
	if err := skip.BackwardBatchParams(g); err != nil {
		t.Fatal(err)
	}
	want, got := cloneGrads(full.Layers()), cloneGrads(skip.Layers())
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("param %d grad %d: %v want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	if conv.bDx != nil || conv.dxcol != nil || front.bDx != nil {
		t.Fatal("BackwardBatchParams built an input gradient at or in front of the first parameter layer")
	}
}
