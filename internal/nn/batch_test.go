package nn

import (
	"math"
	"math/rand"
	"testing"

	"dtmsvs/internal/vecmath"
)

func randVec(n int, rng *rand.Rand) vecmath.Vec {
	v := make(vecmath.Vec, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func stack(rows []vecmath.Vec) *vecmath.Matrix {
	m := vecmath.MustMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

func cloneGrads(layers []Layer) [][]float64 {
	var out [][]float64
	for _, l := range layers {
		for _, p := range l.Params() {
			out = append(out, append([]float64(nil), p.G...))
		}
	}
	return out
}

// TestDenseBatchMatchesPerSample pins the batched Dense contract: the
// batch forward rows equal per-sample Forward outputs bit for bit,
// and the accumulated dW/db of one BackwardBatch equal the sum of
// per-sample Backwards exactly (same ascending-sample summation
// order). The returned input gradient rows must match too.
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
	xs := make([]vecmath.Vec, batch)
	gs := make([]vecmath.Vec, batch)
	for i := range xs {
		xs[i] = randVec(inDim, rng)
		gs[i] = randVec(outDim, rng)
	}
	xB := stack(xs)
	gB := stack(gs)

	out, err := dBatch.ForwardBatch(xB)
	if err != nil {
		t.Fatal(err)
	}
	dx, err := dBatch.BackwardBatch(gB)
	if err != nil {
		t.Fatal(err)
	}

	for s := 0; s < batch; s++ {
		wantOut, err := dSingle.Forward(xs[s])
		if err != nil {
			t.Fatal(err)
		}
		for j := range wantOut {
			if out.At(s, j) != wantOut[j] {
				t.Fatalf("forward row %d col %d: %v want %v", s, j, out.At(s, j), wantOut[j])
			}
		}
		wantDx, err := dSingle.Backward(gs[s])
		if err != nil {
			t.Fatal(err)
		}
		for j := range wantDx {
			if dx.At(s, j) != wantDx[j] {
				t.Fatalf("dx row %d col %d: %v want %v", s, j, dx.At(s, j), wantDx[j])
			}
		}
	}
	bp, sp := dBatch.Params(), dSingle.Params()
	for pi := range bp {
		for j := range bp[pi].G {
			if bp[pi].G[j] != sp[pi].G[j] {
				t.Fatalf("param %d grad %d: %v want %v (batched dW must equal the sum of per-sample dW)",
					pi, j, bp[pi].G[j], sp[pi].G[j])
			}
		}
	}
}

// TestNetworkBatchGradientMatchesPerSample runs the full CNN-compressor
// stack (conv → relu → pool → dense → tanh) both ways: the batched
// backward's accumulated parameter gradients must equal the summed
// per-sample gradients. The conv layer's im2col GEMM groups its
// channel/tap summation differently from the per-sample loop, so the
// comparison uses a tight relative tolerance instead of bit equality.
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
	xs := make([]vecmath.Vec, batch)
	gs := make([]vecmath.Vec, batch)
	for i := range xs {
		xs[i] = randVec(3*12, rng)
		gs[i] = randVec(5, rng)
	}

	if _, err := netB.ForwardBatch(stack(xs)); err != nil {
		t.Fatal(err)
	}
	if _, err := netB.BackwardBatch(stack(gs)); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < batch; s++ {
		if _, err := netS.Forward(xs[s]); err != nil {
			t.Fatal(err)
		}
		if _, err := netS.Backward(gs[s]); err != nil {
			t.Fatal(err)
		}
	}
	pb, ps := netB.Params(), netS.Params()
	const tol = 1e-12
	for pi := range pb {
		for j := range pb[pi].G {
			got, want := pb[pi].G[j], ps[pi].G[j]
			diff := got - want
			if diff < 0 {
				diff = -diff
			}
			scale := 1.0
			if want > scale || want < -scale {
				scale = want
				if scale < 0 {
					scale = -scale
				}
			}
			if diff > tol*scale {
				t.Fatalf("param %d grad %d: %v want %v (diff %v)", pi, j, got, want, diff)
			}
		}
	}
}

// TestBatchForwardMatchesPerSampleForward pins bit-identity of the
// whole batched MLP forward against per-sample Forward — the property
// the DDQN's batched next-state evaluation relies on.
func TestBatchForwardMatchesPerSampleForward(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l1, _ := NewDense(6, 16, rng)
	l2, _ := NewDense(16, 4, rng)
	net, err := NewNetwork(6, l1, &ReLU{}, l2, &Sigmoid{})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 9
	xs := make([]vecmath.Vec, batch)
	for i := range xs {
		xs[i] = randVec(6, rng)
	}
	out, err := net.ForwardBatch(stack(xs))
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < batch; s++ {
		want, err := net.Forward(xs[s])
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if out.At(s, j) != want[j] {
				t.Fatalf("row %d col %d: %v want %v", s, j, out.At(s, j), want[j])
			}
		}
	}
}

// TestBackwardBatchBeforeForwardErrors pins the priming contract on
// the batch path, including after an inference-mode forward.
func TestBackwardBatchBeforeForwardErrors(t *testing.T) {
	d, err := NewDense(4, 3, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.BackwardBatch(vecmath.MustMatrix(2, 3)); err == nil {
		t.Fatal("BackwardBatch before ForwardBatch must error")
	}
	d.SetTraining(false)
	if _, err := d.ForwardBatch(vecmath.MustMatrix(2, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.BackwardBatch(vecmath.MustMatrix(2, 3)); err == nil {
		t.Fatal("BackwardBatch after inference-mode ForwardBatch must error")
	}
	d.SetTraining(true)
	if _, err := d.ForwardBatch(vecmath.MustMatrix(2, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.BackwardBatch(vecmath.MustMatrix(2, 3)); err != nil {
		t.Fatalf("BackwardBatch after training-mode ForwardBatch: %v", err)
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
	xs, gs := make([]vecmath.Vec, 6), make([]vecmath.Vec, 6)
	for i := range xs {
		xs[i], gs[i] = randVec(36, rng), randVec(5, rng)
	}
	x, g := stack(xs), stack(gs)
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
