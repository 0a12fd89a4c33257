package parallel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values from the canonical splitmix64 with seed 0 and
	// 1 (first output of each stream).
	if got := SplitMix64(0); got != 0xe220a8397b1dcdaf {
		t.Errorf("SplitMix64(0) = %#x", got)
	}
	if got := SplitMix64(1); got != 0x910a2dec89025cc1 {
		t.Errorf("SplitMix64(1) = %#x", got)
	}
}

func TestDeriveSeedDistinctStreams(t *testing.T) {
	seen := make(map[int64]string)
	for seed := int64(0); seed < 3; seed++ {
		for tag := uint64(0); tag < 4; tag++ {
			for id := uint64(0); id < 64; id++ {
				s := DeriveSeed(seed, tag, id)
				key := fmt.Sprintf("seed=%d tag=%d id=%d", seed, tag, id)
				if prev, ok := seen[s]; ok {
					t.Fatalf("seed collision between %s and %s", prev, key)
				}
				seen[s] = key
			}
		}
	}
}

func TestDeriveSeedStable(t *testing.T) {
	a := DeriveSeed(42, 1, 7, 3)
	b := DeriveSeed(42, 1, 7, 3)
	if a != b {
		t.Fatalf("DeriveSeed not stable: %d vs %d", a, b)
	}
	if a == DeriveSeed(42, 1, 3, 7) {
		t.Fatal("DeriveSeed ignores id order")
	}
}

func TestNewRandIndependent(t *testing.T) {
	r1 := rand.New(NewStream(42, 1, 0))
	r2 := rand.New(NewStream(42, 1, 1))
	var same int
	for i := 0; i < 64; i++ {
		if r1.Int63() == r2.Int63() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams overlap on %d of 64 draws", same)
	}
}

func TestForDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 257
	run := func(workers int) []float64 {
		p := New(workers)
		out := make([]float64, n)
		if err := p.For(n, func(i int) error {
			rng := rand.New(NewStream(7, uint64(i)))
			out[i] = rng.Float64() + rng.NormFloat64()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	base := run(1)
	for _, w := range []int{2, 4, 8} {
		got := run(w)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: out[%d]=%v want %v", w, i, got[i], base[i])
			}
		}
	}
}

func TestForCoversAllIndicesOnce(t *testing.T) {
	const n = 1000
	counts := make([]int32, n)
	p := New(8)
	if err := p.For(n, func(i int) error {
		counts[i]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

func TestForReturnsLowestIndexError(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for _, workers := range []int{1, 4} {
		p := New(workers)
		err := p.For(100, func(i int) error {
			switch i {
			case 13:
				return errLow
			case 77:
				return errHigh
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("workers=%d: got %v want %v", workers, err, errLow)
		}
	}
}

func TestForEmptyAndDefaults(t *testing.T) {
	p := New(0)
	if p.Workers() <= 0 {
		t.Fatalf("Workers() = %d", p.Workers())
	}
	if err := p.For(0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

func TestForContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		p := New(workers)
		var ran atomic.Int32
		err := p.ForContext(ctx, 100, func(int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v want context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: %d indices ran under a pre-cancelled ctx", workers, ran.Load())
		}
	}
}

func TestForContextCancelMidway(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		p := New(workers)
		var ran atomic.Int32
		err := p.ForContext(ctx, 10_000, func(i int) error {
			if ran.Add(1) == 50 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v want context.Canceled", workers, err)
		}
		if n := ran.Load(); n >= 10_000 {
			t.Fatalf("workers=%d: cancellation did not stop the fan-out (%d ran)", workers, n)
		}
	}
}

// TestForContextCancelPrecedence: ctx.Err() wins over fn errors so a
// cancelled run always surfaces the cancellation to its caller.
func TestForContextCancelPrecedence(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := New(4)
	errBoom := errors.New("boom")
	err := p.ForContext(ctx, 1000, func(i int) error {
		if i == 10 {
			cancel()
			return errBoom
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v want context.Canceled", err)
	}
}
