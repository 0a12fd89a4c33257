package nn

import (
	"bytes"
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

// encodedWeights returns net's weights in the checkpoint encoding.
func encodedWeights(net *Network) []byte {
	var e checkpoint.Enc
	net.EncodeWeights(&e)
	return e.Bytes()
}

// perturbed returns a network of buildNet's architecture whose first
// weight is moved off buildNet's, so a weight transfer into it shows in
// its outputs.
func perturbed(t *testing.T, seed int64) *Network {
	t.Helper()
	net := buildNet(t, seed)
	net.Params()[0].W[0] += 1
	return net
}

// sameOutputs reports whether a and b agree bit for bit.
func sameOutputs(a, b vecmath.Vec) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestSaveLoadWeightsRoundTrip transfers weights from one network into
// another of the same architecture: the receiver must then compute the
// sender's outputs and encode to the sender's bytes.
func TestSaveLoadWeightsRoundTrip(t *testing.T) {
	src := buildNet(t, 1)
	dst := perturbed(t, 2)
	x := vecmath.Vec{0.1, -0.2, 0.3, 0.7}

	before := forwardOne(t, src, x)
	if sameOutputs(before, forwardOne(t, dst, x)) {
		t.Fatal("receiver already computes the sender's outputs")
	}
	if err := dst.DecodeWeights(checkpoint.NewDec(encodedWeights(src))); err != nil {
		t.Fatal(err)
	}
	if after := forwardOne(t, dst, x); !sameOutputs(before, after) {
		t.Fatalf("output differs after weight transfer: %v vs %v", before, after)
	}
	if !bytes.Equal(encodedWeights(dst), encodedWeights(src)) {
		t.Fatal("receiver's weights encode differently from the sender's")
	}
}

// TestWeightStateEncodeRoundTrip moves weights through the checkpoint
// codec into a second network: the decoder must consume the encoding
// exactly, and the outputs must match bit for bit.
func TestWeightStateEncodeRoundTrip(t *testing.T) {
	net := buildNet(t, 5)
	d := checkpoint.NewDec(encodedWeights(net))
	other := perturbed(t, 6)
	if err := other.DecodeWeights(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	x := vecmath.Vec{0.2, 0.4, 0.6, 0.8}
	if !sameOutputs(forwardOne(t, net, x), forwardOne(t, other, x)) {
		t.Fatal("checkpoint round trip changed weights")
	}
}

// TestDecodeWeightsValidation: weights of another architecture — more
// or fewer tensors, a tensor shorter or longer than the live one — are
// refused as corrupt.
func TestDecodeWeightsValidation(t *testing.T) {
	net := buildNet(t, 4)
	d1, err := NewDense(4, 6, newRNG())
	if err != nil {
		t.Fatal(err)
	}
	oneLayer, err := NewNetwork(4, d1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDense(4, 7, newRNG())
	if err != nil {
		t.Fatal(err)
	}
	wider, err := NewNetwork(4, d2)
	if err != nil {
		t.Fatal(err)
	}
	more := buildNet(t, 9)
	d3, err := NewDense(2, 2, newRNG())
	if err != nil {
		t.Fatal(err)
	}
	if more, err = NewNetwork(4, append(more.layers, d3)...); err != nil {
		t.Fatal(err)
	}
	for name, enc := range map[string][]byte{
		"fewer tensors": encodedWeights(oneLayer),
		"more tensors":  encodedWeights(more),
		"longer tensor": encodedWeights(wider),
	} {
		if err := net.DecodeWeights(checkpoint.NewDec(enc)); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("%s: want checkpoint.ErrCorrupt, got %v", name, err)
		}
	}
	if err := wider.DecodeWeights(checkpoint.NewDec(encodedWeights(oneLayer))); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Errorf("shorter tensor: want checkpoint.ErrCorrupt, got %v", err)
	}
}

// TestDecodeWeightsTruncated: truncated weights surface as a decoder
// error, never a panic.
func TestDecodeWeightsTruncated(t *testing.T) {
	enc := encodedWeights(buildNet(t, 7))
	if err := buildNet(t, 8).DecodeWeights(checkpoint.NewDec(enc[:len(enc)-3])); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("truncated weights: want checkpoint.ErrCorrupt, got %v", err)
	}
}
