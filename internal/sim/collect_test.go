package sim

import (
	"bytes"
	"testing"
)

// TestCollectTicksChunkBoundary: an interval of two stack-batched
// chunks and one tick more still puts every tick into every twin — a
// flush that dropped or repeated part of a chunk would move the clock
// — the users come out the same whatever the pool width, and the
// batches allocate nothing: an interval costs the allocations of a
// one-tick interval.
func TestCollectTicksChunkBoundary(t *testing.T) {
	const ticks, intervals = 2*tickChunk + 1, 3
	engine := func(ticks, workers int) *Simulation {
		cfg := fastConfig(7)
		cfg.TicksPerInterval = ticks
		cfg.Parallelism = workers
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	var engines [2]*Simulation
	for w := range engines {
		s := engine(ticks, w+1)
		for k := 0; k < intervals; k++ {
			if err := s.CollectTicks(); err != nil {
				t.Fatal(err)
			}
			s.CloseInterval()
		}
		for _, u := range s.users {
			if got := u.twin.Ticks(); got != ticks*intervals {
				t.Fatalf("%d workers: user %d clock %d, want %d", w+1, u.id, got, ticks*intervals)
			}
		}
		engines[w] = s
	}
	for i, u := range engines[0].users {
		if !bytes.Equal(encodedUser(t, engines[0], u), encodedUser(t, engines[1], engines[1].users[i])) {
			t.Fatalf("user %d differs between 1 and 2 workers", u.id)
		}
	}
	perInterval := func(s *Simulation) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := s.CollectTicks(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if got, want := perInterval(engines[0]), perInterval(engine(1, 1)); got != want {
		t.Fatalf("%v allocations per %d-tick interval, %v per one-tick interval", got, ticks, want)
	}
}
