package cnn

import (
	"math/rand"
	"testing"

	"dtmsvs/internal/vecmath"
)

// TestTrainBatchAllocFree is the allocation regression gate for Fit's
// minibatch step: once the batch scratch has grown, a steady-state
// trainOn (blocked-GEMM forward+backward, optimizer step) must not
// touch the heap.
func TestTrainBatchAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c, err := New(testConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	x := &vecmath.Matrix{}
	if err := x.Resize(8, c.InputDim()); err != nil {
		t.Fatal(err)
	}
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	// Prime the scratch.
	if _, err := c.trainOn(x); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := c.trainOn(x); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("trainOn allocates %v per run in steady state", n)
	}
}

// TestTrainBatchValidation: Fit's minibatch path rejects an empty
// window set and a window shorter than the input before it trains.
func TestTrainBatchValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c, err := New(testConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fit(nil, 1, rng); err == nil {
		t.Fatal("empty batch must error")
	}
	if _, err := c.Fit([]vecmath.Vec{make(vecmath.Vec, 3)}, 1, rng); err == nil {
		t.Fatal("short window must error")
	}
}
