// This file holds the serializable faces of the package's random
// streams, added for session checkpoint/restore. A derived stream
// (NewStream) is one splitmix64 state word, so capturing and restoring
// it is trivial; the stdlib rngSource used for run-level generators
// carries a 607-word register instead, so those are restored by
// replaying construction and skipping forward a recorded draw count
// (CountingSource).

package parallel

import "math/rand"

// Stream is a splitmix64 random stream with an exported position:
// State/SetState let a checkpoint capture the stream in one word and
// restore it exactly. A Stream is a rand.Source64 — wrap it with
// rand.New to draw from it.
type Stream struct{ state uint64 }

var _ rand.Source64 = (*Stream)(nil)

// NewStream returns the derived stream for (seed, ids...), at its
// initial position. Each distinct id sequence gets an independent
// deterministic draw sequence. Seeding is one word write (the stdlib
// source warms up a 607-word register, which dominates when every
// user, group and churn arrival gets its own stream) and each draw is
// a single mix.
func NewStream(seed int64, ids ...uint64) *Stream {
	s := new(Stream)
	s.Init(seed, ids...)
	return s
}

// Init positions s, in place, at the start of the derived stream for
// (seed, ids...): the stream NewStream returns, for a caller that
// holds its Stream by value.
func (s *Stream) Init(seed int64, ids ...uint64) {
	s.state = uint64(DeriveSeed(seed, ids...))
}

// StreamAt returns a stream positioned at a previously captured
// state word.
func StreamAt(state uint64) *Stream { return &Stream{state: state} }

// State returns the stream's position word. Capturing it after any
// number of draws and later calling SetState reproduces the remaining
// draw sequence exactly.
func (s *Stream) State() uint64 { return s.state }

// SetState repositions the stream.
func (s *Stream) SetState(state uint64) { s.state = state }

// Seed implements rand.Source.
func (s *Stream) Seed(seed int64) { s.state = uint64(seed) }

// Uint64 implements rand.Source64.
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 implements rand.Source.
func (s *Stream) Int63() int64 { return int64(s.Uint64() >> 1) }

// CountingSource wraps a rand.Source64 and counts how many times it
// has been advanced. Every draw — Int63 or Uint64 — moves the
// underlying generator exactly one position, so the count alone
// locates the source's state relative to its seeded origin: restore
// by reconstructing the source the same way and calling Skip with the
// recorded count difference.
type CountingSource struct {
	src   rand.Source64
	draws uint64
}

var _ rand.Source64 = (*CountingSource)(nil)

// NewCounting wraps src.
func NewCounting(src rand.Source64) *CountingSource {
	return &CountingSource{src: src}
}

// Draws reports how many positions the source has advanced since
// construction (or the last Seed).
func (c *CountingSource) Draws() uint64 { return c.draws }

// Skip advances the source n positions.
func (c *CountingSource) Skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		c.src.Uint64()
	}
	c.draws += n
}

// Seed implements rand.Source.
func (c *CountingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.draws = 0
}

// Uint64 implements rand.Source64.
func (c *CountingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

// Int63 implements rand.Source.
func (c *CountingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}
