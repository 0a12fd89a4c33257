package grouping

import (
	"bytes"
	"math/rand"
	"testing"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/vecmath"
)

// TestTrainedWeightsDeterministicAcrossKernels pins the acceptance
// criterion at the weight level: compressor and agent weights after
// a full TrainCompressor+TrainAgent run must be bit-identical across
// dispatched and forced-generic kernels, not merely produce the same
// groupings.
func TestTrainedWeightsDeterministicAcrossKernels(t *testing.T) {
	defer vecmath.ForceGeneric(false)
	twins := makeTwins(t, 16)
	type result struct {
		comp  []byte
		agent []byte
		loss  float64
	}
	var base *result
	for _, generic := range []bool{false, true} {
		vecmath.ForceGeneric(generic)
		cfg := testConfig()
		cfg.UseCNN = true
		b, err := New(cfg, rand.New(rand.NewSource(31)))
		if err != nil {
			t.Fatal(err)
		}
		loss, err := b.TrainCompressor(twins, 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.TrainAgent(twins, 10); err != nil {
			t.Fatal(err)
		}
		var comp, agent checkpoint.Enc
		b.compressor.EncodeState(&comp)
		b.agent.EncodeState(&agent)
		got := &result{comp: comp.Bytes(), agent: agent.Bytes(), loss: loss}
		if base == nil {
			base = got
			continue
		}
		if got.loss != base.loss {
			t.Fatalf("generic=%v: compressor loss %v want %v", generic, got.loss, base.loss)
		}
		if !bytes.Equal(got.comp, base.comp) {
			t.Fatalf("generic=%v: compressor weights diverged", generic)
		}
		if !bytes.Equal(got.agent, base.agent) {
			t.Fatalf("generic=%v: agent weights diverged", generic)
		}
	}
}
