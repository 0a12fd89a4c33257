package parallel

import (
	"runtime"
	"sync"
)

// Crew is the persistent sibling of Pool: a fixed team of parked
// worker goroutines for fan-outs so short that Pool.For's per-call
// goroutine spawn (and its closure allocations) would dominate — a
// vecmath.GEMMPool row fan-out runs in tens of microseconds. Dispatch is allocation-free: the caller hands Run a
// long-lived func value (bind a method value once at construction),
// workers wake on a per-worker channel, and completion is a reused
// WaitGroup.
//
// The determinism contract matches Pool: fn must only write state
// owned by its worker index (or claimed from an atomic counter the
// caller owns), so results are bit-identical for any worker count.
//
// A Crew holds no goroutines until the first multi-worker Run; Close
// releases them. Run is not reentrant — one fan-out at a time.
type Crew struct {
	workers int
	once    sync.Once
	wake    []chan struct{}
	wg      sync.WaitGroup
	fn      func(w int)
	closed  bool
}

// NewCrew returns a crew with the given worker bound; workers <= 0
// means runtime.NumCPU(). No goroutines start until the first Run
// that needs them.
func NewCrew(workers int) *Crew {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Crew{workers: workers}
}

// Workers reports the crew's worker bound.
func (c *Crew) Workers() int { return c.workers }

// Run invokes fn(w) once for every w in [0, n) — w 0 on the calling
// goroutine, the rest on parked workers — and returns when all have
// finished. n is clamped to the worker bound. fn is retained only for
// the duration of the call; passing the same func value every time
// keeps Run allocation-free.
func (c *Crew) Run(n int, fn func(w int)) {
	if n > c.workers {
		n = c.workers
	}
	if n <= 1 {
		fn(0)
		return
	}
	c.once.Do(c.spawn)
	c.fn = fn
	c.wg.Add(n - 1)
	for w := 1; w < n; w++ {
		c.wake[w-1] <- struct{}{}
	}
	fn(0)
	c.wg.Wait()
	c.fn = nil
}

// spawn parks workers 1..workers-1, each on its own wake channel (the
// channel send publishes c.fn to the woken worker).
func (c *Crew) spawn() {
	c.wake = make([]chan struct{}, c.workers-1)
	for w := 1; w < c.workers; w++ {
		ch := make(chan struct{}, 1)
		c.wake[w-1] = ch
		go func(w int, ch chan struct{}) {
			for range ch {
				c.fn(w)
				c.wg.Done()
			}
		}(w, ch)
	}
}

// Close releases the crew's workers; a Run after Close degrades to
// sequential on the calling goroutine (same results — the fan-out is
// bit-identical at any width). Idempotent, and safe on a crew that
// never spawned workers. Must not race a Run in flight.
func (c *Crew) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.once.Do(func() {}) // never spawned: nothing to release
	for _, ch := range c.wake {
		close(ch)
	}
	c.wake = nil
	c.workers = 1
}
