package nn

import (
	"errors"
	"math"
	"testing"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/vecmath"
)

func buildNet(t *testing.T, seed int64) *Network {
	t.Helper()
	rng := newRNG()
	_ = seed
	d1, err := NewDense(4, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDense(6, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(4, d1, &Tanh{}, d2)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestSaveLoadWeightsRoundTrip(t *testing.T) {
	src := buildNet(t, 1)
	dst := buildNet(t, 2)
	x := vecmath.Vec{0.1, -0.2, 0.3, 0.7}

	before := forwardOne(t, src, x)
	if err := dst.LoadWeights(src.SaveWeights()); err != nil {
		t.Fatal(err)
	}
	after := forwardOne(t, dst, x)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("output differs after weight transfer: %v vs %v", before, after)
		}
	}
}

func TestSaveWeightsIsolation(t *testing.T) {
	net := buildNet(t, 3)
	state := net.SaveWeights()
	state.Params[0][0] = 1e9
	x := vecmath.Vec{1, 1, 1, 1}
	for _, v := range forwardOne(t, net, x) {
		if v > 1e6 {
			t.Fatal("saved state aliases live weights")
		}
	}
}

func TestLoadWeightsValidation(t *testing.T) {
	net := buildNet(t, 4)
	if err := net.LoadWeights(nil); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
	if err := net.LoadWeights(&WeightState{Params: [][]float64{{1}}}); !errors.Is(err, ErrShape) {
		t.Fatalf("tensor count: want ErrShape, got %v", err)
	}
	bad := net.SaveWeights()
	bad.Params[0] = bad.Params[0][:1]
	if err := net.LoadWeights(bad); !errors.Is(err, ErrShape) {
		t.Fatalf("tensor size: want ErrShape, got %v", err)
	}
	// A failed load must not partially mutate: check output unchanged.
	x := vecmath.Vec{0.5, 0.5, 0.5, 0.5}
	before := forwardOne(t, net, x)
	_ = net.LoadWeights(bad)
	after := forwardOne(t, net, x)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("failed load mutated weights")
		}
	}
}

// TestWeightStateEncodeRoundTrip moves weights through the checkpoint
// codec into a second network: its outputs must match bit for bit.
func TestWeightStateEncodeRoundTrip(t *testing.T) {
	net := buildNet(t, 5)
	var e checkpoint.Enc
	net.EncodeWeights(&e)
	d := checkpoint.NewDec(e.Bytes())
	back := DecodeWeightState(d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	other := buildNet(t, 6)
	if err := other.LoadWeights(back); err != nil {
		t.Fatal(err)
	}
	x := vecmath.Vec{0.2, 0.4, 0.6, 0.8}
	a, b := forwardOne(t, net, x), forwardOne(t, other, x)
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatal("checkpoint round trip changed weights")
		}
	}
}

// TestDecodeWeightStateError: a truncated weight state surfaces as a
// decoder error, never a panic.
func TestDecodeWeightStateError(t *testing.T) {
	var e checkpoint.Enc
	buildNet(t, 7).EncodeWeights(&e)
	d := checkpoint.NewDec(e.Bytes()[:len(e.Bytes())-3])
	DecodeWeightState(d)
	if d.Err() == nil {
		t.Fatal("truncated weights must error")
	}
}
