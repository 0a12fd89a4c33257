package ddqn

import (
	"math"
	"math/rand"
	"testing"

	"dtmsvs/internal/vecmath"
)

// allocCfg is the agent shape of the allocation tests.
var allocCfg = Config{
	StateDim: 6, NumActions: 4, Hidden: 32,
	BatchSize: 16, ReplayCapacity: 256,
}

// randTransitions draws n transitions of the allocCfg shape.
func randTransitions(n int, rng *rand.Rand) []Transition {
	out := make([]Transition, n)
	for i := range out {
		state, next := make(vecmath.Vec, 6), make(vecmath.Vec, 6)
		for j := range state {
			state[j] = rng.NormFloat64()
			next[j] = rng.NormFloat64()
		}
		out[i] = Transition{
			State:     state,
			Action:    rng.Intn(4),
			Reward:    rng.NormFloat64(),
			NextState: next,
			Done:      i%7 == 0,
		}
	}
	return out
}

// TestLearnAllocFree is the allocation regression gate for the
// batched learn step: once the replay buffer is warm and the layer
// scratch has grown, a steady-state Learn — three GEMMs per Dense
// layer plus the optimizer step — must not touch the heap.
func TestLearnAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a, err := New(allocCfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range randTransitions(64, rng) {
		if err := a.Observe(tr); err != nil {
			t.Fatal(err)
		}
	}
	// Prime the layer batch scratch.
	if _, learned, err := a.Learn(); err != nil || !learned {
		t.Fatalf("prime learn: learned=%v err=%v", learned, err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, learned, err := a.Learn(); err != nil || !learned {
			t.Fatalf("learn: learned=%v err=%v", learned, err)
		}
	}); n != 0 {
		t.Fatalf("Learn allocates %v per run in steady state", n)
	}
}

// TestGreedyAllocFreeAndInert: Greedy runs the online network's
// ForwardBatch on the agent's one-row scratch, so it allocates
// nothing, and an agent that calls it between every Learn ends with
// the same weight bits as a twin that never does. Both agents draw
// from rngs with the same seed, and Greedy draws nothing.
func TestGreedyAllocFreeAndInert(t *testing.T) {
	trs := randTransitions(96, rand.New(rand.NewSource(12)))
	probe, err := New(allocCfg, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(allocCfg, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	learned := 0
	for i, tr := range trs {
		for _, a := range []*Agent{probe, twin} {
			if err := a.Observe(tr); err != nil {
				t.Fatal(err)
			}
			_, ok, err := a.Learn()
			if err != nil {
				t.Fatal(err)
			}
			if a == probe && ok {
				learned++
			}
		}
		if _, err := probe.Greedy(trs[(i+1)%len(trs)].State); err != nil {
			t.Fatal(err)
		}
	}
	if learned == 0 {
		t.Fatal("no Learn step ran")
	}
	got, want := probe.online.net.Params(), twin.online.net.Params()
	for i := range want {
		for j, w := range want[i].W {
			if math.Float64bits(got[i].W[j]) != math.Float64bits(w) {
				t.Fatalf("param %d weight %d: %v with Greedy calls, %v without", i, j, got[i].W[j], w)
			}
		}
	}
	state := trs[0].State
	if n := testing.AllocsPerRun(100, func() {
		if _, err := probe.Greedy(state); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Greedy allocates %v per run", n)
	}
}
