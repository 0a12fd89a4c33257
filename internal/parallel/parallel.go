// Package parallel provides the bounded worker pool and the
// deterministic random-stream derivation the simulation engine uses to
// fan per-user and per-group work across cores.
//
// The contract that makes parallel simulation reproducible is:
//
//  1. Every concurrent unit of work (a user, a group, a churn arrival)
//     owns a *rand.Rand derived from the run seed and the unit's
//     stable identity via SplitMix64 mixing (NewStream), never a shared
//     generator, so its draw sequence is independent of scheduling.
//  2. Workers only write to slots owned by their index; reductions
//     over the results happen sequentially afterwards, so floating
//     point accumulation order is fixed.
//
// Under these two rules Pool.For produces bit-identical results
// whether the pool runs 1 worker or NumCPU workers.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// SplitMix64 is the finalizer of the splitmix64 generator: a cheap,
// high-quality 64-bit mixing function. It is the standard way to
// derive independent seed streams from a base seed plus a stream id.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DeriveSeed folds a sequence of stream identifiers (e.g. a stream
// tag, a user id, a churn generation) into the base seed, producing a
// seed that is decorrelated from the base and from every other id
// sequence. The same (seed, ids...) always yields the same result.
func DeriveSeed(seed int64, ids ...uint64) int64 {
	// Mix the running state before each id is folded in, so the
	// combination is sequence-sensitive (x^id alone would make the
	// seed and the first id interchangeable).
	x := uint64(seed)
	for _, id := range ids {
		x = SplitMix64(x) ^ id
	}
	return int64(SplitMix64(x))
}

// Pool is a bounded fan-out executor. It holds no goroutines between
// calls; For spawns at most Workers() goroutines for the duration of
// one call. The zero value is not usable — construct with New.
type Pool struct {
	workers int
}

// New returns a pool with the given worker bound; workers <= 0 means
// runtime.NumCPU().
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Pool{workers: workers}
}

// Workers reports the pool's worker bound.
func (p *Pool) Workers() int { return p.workers }

// For runs fn(i) for every i in [0, n), fanning the indices across the
// pool's workers. fn must only write to state owned by index i; For
// never invokes fn twice for the same index. Every index is attempted
// even when some return errors, and the error with the smallest index
// is returned — so the outcome, including the error, is independent of
// worker count and scheduling.
func (p *Pool) For(n int, fn func(i int) error) error {
	return p.ForContext(context.Background(), n, fn)
}

// ForContext is For with cooperative cancellation: once ctx is done,
// workers stop picking up new indices (in-flight fn calls run to
// completion) and ForContext returns ctx.Err(), which takes precedence
// over any fn error. A cancelled fan-out may therefore have visited
// only a scheduling-dependent subset of the indices — callers must
// treat the touched state as indeterminate and either discard it or
// stop the run, which is exactly what the engines' interval-boundary
// cancellation contract does.
//
// Workers claim contiguous blocks of max(1, n/(8·workers)) indices per
// atomic add and run each block in ascending order. Claiming single
// indices would have every worker hit the one counter for every index
// and put neighbouring indices on different cores, so the index-owned
// writes of fine-grained fan-outs (a K-means point's bounds, a
// silhouette row) would bounce cache lines between them — enough to
// make two cores slower than one. Eight blocks per worker keep the
// tail short. A fan-out of at most 8·workers items — cluster cells,
// groups — claims one index at a time, so its few heavy items spread
// over distinct workers. Which worker runs an index never reaches the
// results (fn writes only index-owned state), so the block size is
// invisible to them.
//
// Cancellation is polled before every index through the channel
// captured once from ctx.Done(): a non-blocking receive reads no lock,
// where ctx.Err() on a cancellable context takes the context's mutex,
// shared by every worker.
func (p *Pool) ForContext(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	done := ctx.Done()
	workers := min(p.workers, n)
	if workers <= 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			if isDone(done) {
				return ctx.Err()
			}
			if err := fn(i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}

	block := max(1, n/(8*workers))
	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
		firstIdx = -1
		wg       sync.WaitGroup
	)
	record := func(i int, err error) {
		mu.Lock()
		if firstIdx == -1 || i < firstIdx {
			firstErr, firstIdx = err, i
		}
		mu.Unlock()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(block))) - block
				if lo >= n {
					return
				}
				for i := lo; i < min(lo+block, n); i++ {
					if isDone(done) {
						return
					}
					if err := fn(i); err != nil {
						record(i, err)
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}

// isDone polls a context's Done channel without blocking; a nil
// channel (context.Background) is never done.
func isDone(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}
