package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

var claimTestWorkers = []int{1, 2, 3, 8}

// TestForEveryIndexExactlyOnce sweeps every block-size regime — fewer
// items than workers, one-index claims up to 8·workers items, and
// blocks with a ragged last block — and checks each index ran once.
func TestForEveryIndexExactlyOnce(t *testing.T) {
	sizes := []int{1000, 4097}
	for n := 0; n <= 70; n++ {
		sizes = append(sizes, n)
	}
	for _, workers := range claimTestWorkers {
		p := New(workers)
		for _, n := range sizes {
			counts := make([]atomic.Int32, n)
			if err := p.For(n, func(i int) error {
				counts[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestForLowestErrorAcrossBlocks: errors in different blocks, with the
// highest index failing first in time, still surface the lowest index.
func TestForLowestErrorAcrossBlocks(t *testing.T) {
	const n = 1000
	for _, workers := range claimTestWorkers {
		p := New(workers)
		failed := make(chan struct{})
		err := p.For(n, func(i int) error {
			switch i {
			case 5:
				if workers > 1 {
					// Fail only after index 900, in another block, has.
					select {
					case <-failed:
					case <-time.After(10 * time.Second):
						return errors.New("index 900 never ran")
					}
				}
				return fmt.Errorf("index %d", i)
			case 400:
				return fmt.Errorf("index %d", i)
			case 900:
				defer close(failed)
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 5" {
			t.Fatalf("workers=%d: got %v, want the error of index 5", workers, err)
		}
	}
}

// TestForContextCancelMidBlock: a cancel inside a block stops every
// worker at its next index. Each other worker may have passed its poll
// just before the cancel, so it can start at most one more index.
func TestForContextCancelMidBlock(t *testing.T) {
	const n = 10_000
	for _, workers := range claimTestWorkers {
		ctx, cancel := context.WithCancel(context.Background())
		p := New(workers)
		var ran, late atomic.Int32
		err := p.ForContext(ctx, n, func(i int) error {
			if ctx.Err() != nil {
				late.Add(1)
			}
			if ran.Add(1) == 3 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v want context.Canceled", workers, err)
		}
		if got := late.Load(); got > int32(workers-1) {
			t.Fatalf("workers=%d: %d indices started after the cancel", workers, got)
		}
		if got := int(ran.Load()); got >= n/(8*workers) {
			t.Fatalf("workers=%d: %d indices ran, a whole block or more", workers, got)
		}
	}
}

// TestForFewItemsRunConcurrently: a fan-out of at most 8·workers items
// claims one index at a time, so its first `workers` items run on
// distinct goroutines at once — each waits here until all have arrived,
// which a worker holding two of them in one block could never see.
func TestForFewItemsRunConcurrently(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		p := New(workers)
		for _, n := range []int{workers, 8 * workers} {
			var arrived atomic.Int32
			all := make(chan struct{})
			err := p.For(n, func(i int) error {
				if i >= workers {
					return nil
				}
				if arrived.Add(1) == int32(workers) {
					close(all)
				}
				select {
				case <-all:
					return nil
				case <-time.After(10 * time.Second):
					return fmt.Errorf("index %d: only %d of %d items ran concurrently", i, arrived.Load(), workers)
				}
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
		}
	}
}
