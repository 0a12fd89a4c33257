package nn

import (
	"math/rand"
	"testing"

	"dtmsvs/internal/vecmath"
)

// buildBatchNet constructs the compressor-shaped stack the batched
// training paths exercise: conv → relu → pool → dense → tanh.
func buildBatchNet(t *testing.T, rng *rand.Rand) *Network {
	t.Helper()
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
	return net
}

// TestDenseForwardBackwardAllocFree is the allocation regression gate
// for the Dense training pass: a steady-state ForwardBatch +
// BackwardBatch must not touch the heap.
func TestDenseForwardBackwardAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d, err := NewDense(32, 16, rng)
	if err != nil {
		t.Fatal(err)
	}
	x, grad := randMatrix(8, 32, rng), randMatrix(8, 16, rng)
	// Prime scratch.
	if _, err := d.ForwardBatch(x); err != nil {
		t.Fatal(err)
	}
	if _, err := d.BackwardBatch(grad); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := d.ForwardBatch(x); err != nil {
			t.Fatal(err)
		}
		if _, err := d.BackwardBatch(grad); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Dense forward+backward allocates %v per run", n)
	}
}

// TestInferenceForwardAllocFree checks inference on the compressor's
// encoder stack: once a training step has grown the scratch, a
// ForwardBatch of one row, of a short tail batch or of a full batch
// allocates nothing.
func TestInferenceForwardAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := buildBatchNet(t, rand.New(rand.NewSource(3)))
	x, grad := randMatrix(8, 5*16, rng), randMatrix(8, 8, rng)
	if _, err := net.ForwardBatch(x); err != nil {
		t.Fatal(err)
	}
	if _, err := net.BackwardBatch(grad); err != nil {
		t.Fatal(err)
	}
	one, tail := randMatrix(1, 5*16, rng), randMatrix(5, 5*16, rng)
	if n := testing.AllocsPerRun(200, func() {
		if _, err := net.ForwardBatch(one); err != nil {
			t.Fatal(err)
		}
		if _, err := net.ForwardBatch(tail); err != nil {
			t.Fatal(err)
		}
		if _, err := net.ForwardBatch(x); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("inference ForwardBatch allocates %v per run", n)
	}
}

// TestNetworkTrainStepAllocFree covers a whole optimizer step on the
// stack the CNN compressor trains (conv → relu → pool → dense → tanh):
// zeroed gradients, ForwardBatch, the MSE loss, the parameter-only
// backward, clipping and Adam.
func TestNetworkTrainStepAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := buildBatchNet(t, rng)
	x, target := randMatrix(8, 5*16, rng), randMatrix(8, 8, rng)
	grad := vecmath.MustMatrix(8, 8)
	opt := NewAdam(1e-3)
	step := func() {
		net.ZeroGrads()
		out, err := net.ForwardBatch(x)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < out.Rows; r++ {
			if _, err := MSELossInto(grad.Row(r), out.Row(r), target.Row(r)); err != nil {
				t.Fatal(err)
			}
		}
		if err := net.BackwardBatchParams(grad); err != nil {
			t.Fatal(err)
		}
		ClipGrads(net.Params(), 5)
		if err := opt.Step(net.Params()); err != nil {
			t.Fatal(err)
		}
	}
	step() // grow the scratch and the Adam moments
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("network train step allocates %v per run", n)
	}
}
