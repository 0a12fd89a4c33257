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
// order — and every forward row equals the inference Forward.
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
	for s := 0; s < batch; s++ {
		row, err := dSingle.Forward(x.Row(s))
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range row {
			if math.Float64bits(out.At(s, j)) != math.Float64bits(v) {
				t.Fatalf("row %d col %d: batch %v, inference Forward %v", s, j, out.At(s, j), v)
			}
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

// TestBatchForwardMatchesPerSampleForward pins inference against the
// training forward on the stacks the engines run: every ForwardBatch
// row must equal the vector Forward of that sample. The DDQN Q-network
// (Dense-ReLU-Dense-ReLU-Dense, its batched next-state evaluation) and
// the compressor decoder (Dense-ReLU-Dense) agree bit for bit. The
// conv encoder agrees within 1e-12 but not bitwise: its training
// forward is an im2col GEMM that sums over (channel, tap) in one
// chain, while the inference loop sums each channel's taps and then
// adds the channel sums.
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
		tol  float64
	}{
		{"ddqn", mlp(8, 64, 64, 9), 8, 0},
		{"decoder", mlp(8, 56, 80), 8, 0},
		{"encoder", buildBatchNet(t, rng), 5 * 16, 1e-12},
	} {
		x := randMatrix(9, tc.in, rng)
		out, err := tc.net.ForwardBatch(x)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < x.Rows; s++ {
			want, err := tc.net.Forward(x.Row(s))
			if err != nil {
				t.Fatal(err)
			}
			for j, w := range want {
				got := out.At(s, j)
				bad := math.Float64bits(got) != math.Float64bits(w)
				if tc.tol > 0 {
					bad = math.Abs(got-w) > tc.tol*math.Max(1, math.Abs(w))
				}
				if bad {
					t.Fatalf("%s row %d col %d: ForwardBatch %v, Forward %v", tc.name, s, j, got, w)
				}
			}
		}
	}
}

// TestBackwardBatchBeforeForwardErrors pins the priming contract: a
// BackwardBatch needs a ForwardBatch of the same batch size first,
// and an inference Forward does not prime it.
func TestBackwardBatchBeforeForwardErrors(t *testing.T) {
	d, err := NewDense(4, 3, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.BackwardBatch(vecmath.MustMatrix(2, 3)); err == nil {
		t.Fatal("BackwardBatch before ForwardBatch must error")
	}
	if _, err := d.Forward(make(vecmath.Vec, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.BackwardBatch(vecmath.MustMatrix(2, 3)); err == nil {
		t.Fatal("BackwardBatch after an inference Forward must error")
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
