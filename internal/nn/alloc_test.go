package nn

import (
	"math"
	"math/rand"
	"testing"

	"dtmsvs/internal/vecmath"
)

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

// TestInferenceForwardAllocFree checks the inference path on the
// compressor's encoder stack: Forward allocates nothing and caches
// nothing, so inference calls between a ForwardBatch and its
// BackwardBatch leave every gradient bit unchanged.
func TestInferenceForwardAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	netA, netB := buildBatchNet(t, rand.New(rand.NewSource(3))), buildBatchNet(t, rand.New(rand.NewSource(3)))
	x, grad := randMatrix(4, 5*16, rng), randMatrix(4, 8, rng)
	v := randMatrix(1, 5*16, rng).Row(0)
	if n := testing.AllocsPerRun(200, func() {
		if _, err := netA.Forward(v); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("inference Forward allocates %v per run", n)
	}
	for _, net := range []*Network{netA, netB} {
		if _, err := net.ForwardBatch(x); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < x.Rows; s++ {
		if _, err := netA.Forward(x.Row((s + 1) % x.Rows)); err != nil {
			t.Fatal(err)
		}
	}
	for _, net := range []*Network{netA, netB} {
		if _, err := net.BackwardBatch(grad); err != nil {
			t.Fatal(err)
		}
	}
	want, got := cloneGrads(netB.Layers()), cloneGrads(netA.Layers())
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("param %d grad %d: %v want %v after interleaved inference", i, j, got[i][j], want[i][j])
			}
		}
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
