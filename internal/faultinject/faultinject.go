// Package faultinject provides deterministic failure injection for
// the session layer's sink and checkpoint I/O paths. Faults are
// scheduled by call index — fail the Nth write, short-write the Nth
// write, fail the Nth flush — so a harness can crash a run at any
// chosen point and replay the exact same failure on every execution.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"dtmsvs/internal/parallel"
)

// Mode selects what an injected Fault does when its call comes up.
type Mode int

const (
	// FailWrite fails the Nth write (or WriteRecord) without touching
	// the wrapped writer — no bytes are consumed.
	FailWrite Mode = iota
	// ShortWrite passes half of the Nth write's bytes through and then
	// fails. It models a torn write: the wrapped writer has seen a
	// partial record.
	ShortWrite
	// FailFlush fails the Nth flush before delegating.
	FailFlush
)

func (m Mode) String() string {
	switch m {
	case FailWrite:
		return "fail-write"
	case ShortWrite:
		return "short-write"
	case FailFlush:
		return "fail-flush"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ErrInjected is the sentinel every injected failure wraps; match
// with errors.Is to tell injected faults from real I/O errors.
var ErrInjected = errors.New("faultinject: injected fault")

// Fault schedules one failure: mode Mode on the N-th call (1-based)
// of the matching operation.
type Fault struct {
	Mode Mode
	N    int
}

// Error is the failure an injected Fault produces.
type Error struct {
	Op   string // "write" or "flush"
	Call int    // 1-based call index the fault fired on
}

func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: injected %s fault on call %d", e.Op, e.Call)
}

// Unwrap makes errors.Is(err, ErrInjected) match.
func (e *Error) Unwrap() error { return ErrInjected }

// Writer wraps an io.Writer with byte-level fault injection. Not safe
// for concurrent use.
type Writer struct {
	w      io.Writer
	faults []Fault
	writes int
}

// NewWriter wraps w with the given fault schedule.
func NewWriter(w io.Writer, faults ...Fault) *Writer {
	return &Writer{w: w, faults: faults}
}

// Writes reports how many Write calls the wrapper has seen.
func (w *Writer) Writes() int { return w.writes }

// Write implements io.Writer, injecting any fault scheduled for this
// call index before (FailWrite) or during (ShortWrite) delegation.
func (w *Writer) Write(p []byte) (int, error) {
	w.writes++
	for _, f := range w.faults {
		if f.N != w.writes {
			continue
		}
		switch f.Mode {
		case FailWrite:
			return 0, &Error{Op: "write", Call: w.writes}
		case ShortWrite:
			n, err := w.w.Write(p[:len(p)/2])
			if err != nil {
				return n, err
			}
			return n, &Error{Op: "write", Call: w.writes}
		}
	}
	return w.w.Write(p)
}

// RecordSink is the record-level surface Sink wraps — the session
// layer's TraceSink shape, generic so this package needs no
// dependency on the root package's record type.
type RecordSink[R any] interface {
	WriteRecord(R) error
	Flush() error
}

// Sink wraps a RecordSink with record-level fault injection. FailWrite
// and ShortWrite faults fire on WriteRecord calls (ShortWrite at this
// level degenerates to a FailWrite: the record boundary is
// the unit, and the wrapped sink never sees the record), FailFlush
// faults on Flush calls. Not safe for concurrent use.
type Sink[R any] struct {
	s       RecordSink[R]
	faults  []Fault
	writes  int
	flushes int
}

// Wrap wraps s with the given fault schedule.
func Wrap[R any](s RecordSink[R], faults ...Fault) *Sink[R] {
	return &Sink[R]{s: s, faults: faults}
}

// Writes reports how many WriteRecord calls the wrapper has seen.
func (s *Sink[R]) Writes() int { return s.writes }

// Flushes reports how many Flush calls the wrapper has seen.
func (s *Sink[R]) Flushes() int { return s.flushes }

// WriteRecord implements RecordSink, injecting before delegating so a
// failed call leaves the wrapped sink untouched.
func (s *Sink[R]) WriteRecord(r R) error {
	s.writes++
	for _, f := range s.faults {
		if f.N != s.writes {
			continue
		}
		if f.Mode == FailWrite || f.Mode == ShortWrite {
			return &Error{Op: "write", Call: s.writes}
		}
	}
	return s.s.WriteRecord(r)
}

// Flush implements RecordSink.
func (s *Sink[R]) Flush() error {
	s.flushes++
	for _, f := range s.faults {
		if f.Mode == FailFlush && f.N == s.flushes {
			return &Error{Op: "flush", Call: s.flushes}
		}
	}
	return s.s.Flush()
}

// Plan derives a deterministic fault from a seed: the mode and the
// 1-based call index within [1, calls] are drawn from the seed's
// splitmix64 stream, so a harness sweeping seeds exercises a spread
// of failure points that is stable across runs.
func Plan(seed int64, calls int) Fault {
	if calls < 1 {
		calls = 1
	}
	rng := rand.New(parallel.NewStream(seed, 0xFA01))
	return Fault{
		Mode: Mode(rng.Intn(3)),
		N:    1 + rng.Intn(calls),
	}
}

// CellFault schedules the failure of one cluster coverage cell: the
// cell goes dark at the FailAt scheduling-interval boundary (its
// twins are evacuated to surviving cells and its edge cache is
// dropped) and, if ReviveAt is set, returns — empty and cold — at
// that later boundary. The zero ReviveAt sentinel is -1 (never).
type CellFault struct {
	// Cell is the coverage cell / base station id to kill.
	Cell int `json:"cell"`
	// FailAt is the 0-based scheduling interval at whose start the
	// cell dies (faults never fire during warm-up).
	FailAt int `json:"failAt"`
	// ReviveAt is the 0-based interval at whose start the cell
	// returns; < 0 means it stays dark.
	ReviveAt int `json:"reviveAt"`
}

// CellPlan derives a deterministic chaos plan from its own seed
// stream (disjoint from Plan's): which of cells cells dies, at which
// of intervals boundaries, and whether/when it comes back. Half of
// all seeds schedule a revival, uniformly in the remaining intervals;
// the same (seed, cells, intervals) always yields the same plan, so a
// chaotic run replays bit-identically.
func CellPlan(seed int64, cells, intervals int) CellFault {
	if cells < 1 {
		cells = 1
	}
	if intervals < 1 {
		intervals = 1
	}
	rng := rand.New(parallel.NewStream(seed, 0xFA02))
	f := CellFault{
		Cell:     rng.Intn(cells),
		FailAt:   rng.Intn(intervals),
		ReviveAt: -1,
	}
	if rem := intervals - f.FailAt; rem > 1 && rng.Intn(2) == 0 {
		f.ReviveAt = f.FailAt + 1 + rng.Intn(rem-1)
	}
	return f
}

// ProcFaultKind selects how a distributed worker process misbehaves.
type ProcFaultKind uint8

const (
	// ProcKill terminates the worker abruptly (SIGKILL in process
	// transports, torn pipes in in-process ones) when the scheduled
	// interval's step arrives.
	ProcKill ProcFaultKind = iota
	// ProcHang stalls the worker — heartbeats included — so the
	// supervisor's liveness deadline, not the pipe, detects the loss.
	ProcHang
	// ProcGarbage makes the worker emit a corrupt frame (bad CRC) in
	// place of the interval's records, exercising torn-frame recovery.
	ProcGarbage
)

// String names the fault kind for logs and test output.
func (k ProcFaultKind) String() string {
	switch k {
	case ProcKill:
		return "kill"
	case ProcHang:
		return "hang"
	case ProcGarbage:
		return "garbage"
	}
	return "unknown"
}

// ProcFault schedules one distributed-worker process failure: worker
// Worker misbehaves per Kind when it receives the step for scheduling
// interval Interval. Faults fire once — a worker restarted past the
// scheduled boundary does not re-fire it.
type ProcFault struct {
	// Worker is the worker index to fail.
	Worker int `json:"worker"`
	// Interval is the 0-based scheduling interval whose step triggers
	// the fault (process faults never fire during warm-up or training).
	Interval int `json:"interval"`
	// Kind is the failure mode.
	Kind ProcFaultKind `json:"kind"`
}

// ProcPlan derives a deterministic worker-chaos plan from its own
// seed stream (disjoint from Plan's and CellPlan's): which of workers
// workers fails, at which of intervals boundaries, and how. The same
// (seed, workers, intervals) always yields the same plan, so a
// chaotic distributed run replays bit-identically.
func ProcPlan(seed int64, workers, intervals int) ProcFault {
	if workers < 1 {
		workers = 1
	}
	if intervals < 1 {
		intervals = 1
	}
	rng := rand.New(parallel.NewStream(seed, 0xFA03))
	return ProcFault{
		Worker:   rng.Intn(workers),
		Interval: rng.Intn(intervals),
		Kind:     ProcFaultKind(rng.Intn(3)),
	}
}
