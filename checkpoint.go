// This file is the public checkpoint/restore surface of the Session
// API. Checkpoint serializes a session's complete deterministic state
// at an interval boundary — session counters, engine state, trained
// weights, twins, caches and every random-stream position — into the
// versioned binary format of internal/checkpoint. Resume and
// ResumeCluster rebuild a session from the same configuration and a
// checkpoint stream; the resumed session produces a trace suffix
// bit-identical to the uninterrupted run at the same seed, at any
// Parallelism. Both in-process session kinds run the
// cluster engine, so they write one layout, kind "cluster": a
// monolithic checkpoint is the cluster one of its single all-station
// cell. Only the header fingerprint tells the two apart — the
// scenario for Open, the cluster configuration for OpenCluster — so
// neither resumes as the other, even over one station.
package dtmsvs

import (
	"fmt"
	"io"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/cluster"
)

// Sentinel errors for checkpoint streams, re-exported so callers can
// classify failures without importing internal packages. All three
// are errors.Is-compatible targets.
var (
	// ErrCheckpointCorrupt marks a stream that is structurally broken:
	// truncated, bit-flipped (CRC mismatch), or semantically
	// inconsistent with the configuration it claims to match.
	ErrCheckpointCorrupt = checkpoint.ErrCorrupt
	// ErrCheckpointVersion marks a checkpoint written by an
	// incompatible format version.
	ErrCheckpointVersion = checkpoint.ErrVersion
	// ErrCheckpointConfig marks a checkpoint whose engine kind or
	// configuration fingerprint does not match the session it is being
	// restored into.
	ErrCheckpointConfig = checkpoint.ErrConfigMismatch
)

// Checkpoint implements Session. The stream is self-describing
// (versioned header, per-section CRCs) and safe to write through
// checkpoint.WriteFile for atomic on-disk persistence. The session
// keeps its encoding buffer between calls: the first checkpoint grows
// it to the size of the state, later ones allocate next to nothing.
func (s *session) Checkpoint(w io.Writer) error {
	switch {
	case s.closed:
		return fmt.Errorf("checkpoint of closed session: %w", ErrSessionClosed)
	case s.failed != nil:
		return fmt.Errorf("checkpoint of failed session: %w", s.failed)
	}
	fp, err := s.eng.fingerprint()
	if err != nil {
		return err
	}
	t0 := s.met.ckptEncode.Start()
	counted := &countingWriter{w: w}
	cw := &s.ckpt
	cw.Reset(counted, s.kind, fp)
	if err := cw.Section("session", func(e *checkpoint.Enc) {
		e.Int(s.next)
		e.Int(s.warmupDone)
		e.Bool(s.trained)
		e.Bool(s.finished)
	}); err != nil {
		return err
	}
	if err := s.eng.writeState(cw); err != nil {
		return err
	}
	if err := cw.Finish(); err != nil {
		return err
	}
	s.met.ckptEncode.ObserveSince(t0)
	s.met.ckptBytes.Set(float64(counted.n))
	s.met.ckpts.Inc()
	return nil
}

// resume restores the session from a checkpoint stream. The session
// must be freshly opened with the identical configuration (the header
// fingerprint enforces this). A successful restore is observed as the
// checkpoint/restore stage.
func (s *session) resume(r io.Reader) error {
	t0 := s.met.ckptRestore.Start()
	if err := s.restore(r); err != nil {
		return err
	}
	s.met.ckptRestore.ObserveSince(t0)
	return nil
}

func (s *session) restore(r io.Reader) error {
	fp, err := s.eng.fingerprint()
	if err != nil {
		return err
	}
	cr, err := checkpoint.NewReader(r, s.kind, fp)
	if err != nil {
		return err
	}
	d, err := cr.Section("session")
	if err != nil {
		return err
	}
	next := d.Int()
	warmupDone := d.Int()
	trained := d.Bool()
	finished := d.Bool()
	if err := d.Close(); err != nil {
		return err
	}
	// Step trains only after the last warm-up interval and runs
	// intervals only on a trained engine, so a trained engine has
	// finished its warm-up and any interval implies training.
	switch {
	case next < 0 || next > s.intervals,
		warmupDone < 0 || warmupDone > s.warmupIntervals,
		finished && next < s.intervals,
		next > 0 && !trained,
		trained && warmupDone < s.warmupIntervals:
		return fmt.Errorf("checkpoint counters inconsistent (next=%d warmup=%d trained=%v finished=%v): %w",
			next, warmupDone, trained, finished, ErrCheckpointCorrupt)
	}
	if err := s.eng.readState(cr); err != nil {
		return err
	}
	if err := cr.Finish(); err != nil {
		return err
	}
	s.next = next
	s.warmupDone = warmupDone
	s.trained = trained
	s.finished = finished
	if s.finished {
		// The run had already completed; stamp the (suffix-only) trace
		// so Done/Trace behave as after a normal final Step.
		return s.eng.finish()
	}
	return nil
}

// resumable is a freshly opened session of any kind.
type resumable interface {
	resume(r io.Reader) error
	Close() error
}

// resumeOpened restores r into s, the session an Open call just
// returned with err, and closes s if the restore fails.
func resumeOpened[S resumable](s S, err error, r io.Reader) (S, error) {
	if err != nil {
		return s, err
	}
	if err := s.resume(r); err != nil {
		s.Close()
		var none S
		return none, err
	}
	return s, nil
}

// Resume opens a monolithic session from cfg and restores the
// checkpoint previously written by (*SimSession).Checkpoint under the
// identical configuration. The engine it opens places no population:
// the checkpoint's users are built once each, as they are decoded.
// Stepping the resumed session yields the same records, in the same
// order, as the uninterrupted run would have produced from that
// boundary on. The session's Trace holds only the resumed suffix; the
// prefix lives wherever the original run's sink put it.
func Resume(cfg Config, r io.Reader, opts ...SessionOption) (*SimSession, error) {
	s, err := openWith(cluster.NewWholeUnplaced, cfg, opts)
	return resumeOpened(s, err, r)
}

// ResumeCluster is Resume for a session over one cell per base
// station, restoring a checkpoint written by
// (*ClusterSession).Checkpoint.
func ResumeCluster(cfg ClusterConfig, r io.Reader, opts ...SessionOption) (*ClusterSession, error) {
	s, err := openClusterWith(cluster.NewUnplaced, cfg, opts)
	return resumeOpened(s, err, r)
}
