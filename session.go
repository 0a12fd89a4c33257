// This file is the unified Session API: one interval-stepped handle
// over the cluster engine, with per-interval records flowing to a
// TraceSink instead of accumulating in heap, and cooperative
// context.Context cancellation checked at every interval boundary.
// Open runs the engine over one cell that covers every station (the
// monolithic case: no twin is ever handed over), OpenCluster over one
// cell per station, and OpenDistributed splits those cells across
// supervised workers.
//
// The lifecycle is
//
//	s, err := dtmsvs.Open(cfg, dtmsvs.WithSink(sink))
//	for !s.Done() {
//	    rep, err := s.Step(ctx)
//	    ...
//	}
//	s.Close()
//
// The first Step runs the prologue (warm-up intervals, pipeline
// training, initial group construction) before its scheduling
// interval, so it is by far the most expensive one. Cancellation that
// lands on a boundary — Step called with an already-cancelled ctx —
// leaves the session resumable with a fresh context; cancellation
// that fires mid-interval aborts the in-flight fan-out, flushes the
// records of every completed interval to the sink, and permanently
// fails the session (the engine's mid-interval state is
// indeterminate).
package dtmsvs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/cluster"
	"dtmsvs/internal/coord"
	"dtmsvs/internal/sim"
	"dtmsvs/internal/stats"
	"dtmsvs/internal/tracebin"
)

// ErrSessionClosed is returned by Step, Checkpoint and a second Close
// after the session has been closed.
var ErrSessionClosed = errors.New("dtmsvs: session closed")

// ErrSink wraps every sink failure a Step reports: the first
// WriteRecord or Flush error, which fails the session. Match with
// errors.Is(err, ErrSink); the sink's own error is wrapped alongside
// and stays reachable through errors.As.
var ErrSink = errors.New("dtmsvs: sink failure")

// ErrSessionDone is returned by Step once every scheduling interval
// has run.
var ErrSessionDone = errors.New("dtmsvs: session done")

// ErrObserver wraps a panic raised by a WithObserver or WithProgress
// callback. The interval it interrupted had already completed and
// flushed, so the session is NOT failed: the panic is surfaced as an
// error (with the interval's report) and the next Step continues the
// run. Match with errors.Is(err, ErrObserver).
var ErrObserver = errors.New("dtmsvs: observer panicked")

// ErrEmptyScenario is returned by Open and OpenCluster for degenerate
// scenarios (zero users or zero intervals) that would otherwise
// produce an empty trace with undefined summary fields. It wraps the
// engines' config error class.
var ErrEmptyScenario = sim.ErrEmptyScenario

// ErrCellFailure classifies injected cell-failure outcomes in a
// cluster session: a fault schedule that takes down the last
// surviving cell, which leaves the run no coverage. Match with
// errors.Is.
var ErrCellFailure = cluster.ErrCellFailure

// TraceRecord is one trace row, streamed or retained in a Trace: a
// group-interval record plus the serving cell. BS is -1 for the monolithic engine, whose groups
// are campus-wide; its JSON and CSV forms then match the monolithic
// trace schema exactly (no bs column). The row is defined, with the
// column table the binary and CSV schemas are read from, in
// internal/tracebin.
type TraceRecord = tracebin.Record

// IntervalReport is what one Step produced: the interval's records
// plus interval- and run-level counters.
type IntervalReport struct {
	// Interval is the scheduling interval index that just ran.
	Interval int
	// Records are the interval's trace rows in (cell, group) order.
	Records []TraceRecord
	// Groups is the number of multicast groups served this interval.
	Groups int
	// PredictedRBs and ActualRBs are the interval's summed radio
	// demand across groups.
	PredictedRBs, ActualRBs float64
	// Handovers is the cumulative cross-cell twin migration count
	// (always 0 for the monolithic engine).
	Handovers int
	// ChurnedUsers is the cumulative count of users replaced by churn.
	ChurnedUsers int
	// CellsDown is the number of quarantined coverage cells while
	// this interval ran (always 0 for the monolithic engine).
	CellsDown int
	// EvacuatedTwins is the cumulative count of twins evacuated from
	// failed cells so far.
	EvacuatedTwins int
	// StepDuration is the wall-clock time of the Step call that
	// produced this report, including sink writes and flushes (and the
	// prologue, on the first report). Always measured, so WithObserver
	// users get timing without mounting a metrics registry.
	StepDuration time.Duration
	// PrologueDuration is the wall-clock time of the warm-up /
	// training / group-construction prologue. Non-zero only on the
	// report of the Step that ran prologue work (normally the first).
	PrologueDuration time.Duration
}

// Session is the interval-stepped handle on a running scenario. Open
// (monolithic), OpenCluster (one cell per station) and
// OpenDistributed return one.
type Session interface {
	// Step advances exactly one scheduling interval and reports that
	// interval's records and stats. The first call also runs the
	// warm-up / train / group prologue. Calling Step with an
	// already-cancelled ctx returns ctx.Err() with the sink flushed
	// and the session still resumable; a cancellation or error that
	// fires mid-step permanently fails the session.
	Step(ctx context.Context) (IntervalReport, error)
	// Interval reports the number of completed scheduling intervals —
	// the index the next Step will run.
	Interval() int
	// Done reports whether every scheduling interval has run.
	Done() bool
	// Checkpoint serializes the session's full deterministic state —
	// engine, RNG positions, trained weights, twins, caches — at the
	// current interval boundary, so Resume/ResumeCluster can continue
	// the run bit-identically. It refuses failed or closed sessions
	// (after a mid-interval failure the engine has advanced past the
	// session's counters; resume from the last good checkpoint
	// instead).
	Checkpoint(w io.Writer) error
	// Close flushes the sink and releases the session. A second Close
	// returns an error wrapping ErrSessionClosed (the first Close
	// already released everything); Step returns ErrSessionClosed
	// afterwards too.
	Close() error
}

// SessionOption configures a session at Open time, replacing ad-hoc
// config fields for run observation and output.
type SessionOption func(*sessionOptions)

type sessionOptions struct {
	sink      TraceSink
	observers []func(IntervalReport)
	progress  func(done, total int)
	// metrics, when non-nil, is mounted on the engine and session at
	// Open time (see WithMetrics in metrics.go).
	metrics *MetricsRegistry
	// workerTransport, set by WithWorkerProcesses, spawns distributed
	// workers; nil runs them in-process.
	workerTransport coord.TransportFactory
	// tuneSupervisor, when non-nil, edits the supervisor's
	// configuration before OpenDistributed builds it. Only tests set
	// it, to shrink coord's timescales and schedule process faults.
	tuneSupervisor func(*coord.Config)
}

// WithSink streams every interval's records into sink (flushed at
// each interval boundary). With a sink attached the session stops
// retaining records internally — Trace() then carries only run-level
// statistics — so a streamed run never holds the full trace in heap.
func WithSink(sink TraceSink) SessionOption {
	return func(o *sessionOptions) { o.sink = sink }
}

// WithObserver registers fn to be called after every completed
// interval with that interval's report. Observers run on the stepping
// goroutine, in registration order.
func WithObserver(fn func(IntervalReport)) SessionOption {
	return func(o *sessionOptions) { o.observers = append(o.observers, fn) }
}

// WithProgress registers fn to be called after every completed
// interval with (completed, total) scheduling-interval counts.
func WithProgress(fn func(done, total int)) SessionOption {
	return func(o *sessionOptions) { o.progress = fn }
}

// stepper is the engine-side contract a session drives: one warm-up
// interval, training plus the first group construction, one
// scheduling interval, the final stamp, and the engine's boundary
// state for checkpoints. The session sequences these calls itself;
// it is the only run loop over an engine.
type stepper interface {
	warmupStep(ctx context.Context) error
	trainAndBuild(ctx context.Context) error
	// stepInterval runs one scheduling interval and reports its
	// records and the engine's cumulative counters (handovers, churn,
	// cell degradation); the session fills in the rest of the report.
	stepInterval(ctx context.Context, interval int) (IntervalReport, error)
	// finish stamps the run-level trace fields after the last interval;
	// an error means the trace summary could not be assembled.
	finish() error
	// close ends the engine's run. The in-process engine holds no
	// goroutines between calls, so for it close only drops its
	// checkpoint buffers; the distributed stepper shuts its worker
	// processes down. Idempotent.
	close()
	// fingerprint hashes the defaulted configuration for the
	// checkpoint header's compatibility check. It is computed on
	// demand, so opening a session hashes nothing.
	fingerprint() (uint64, error)
	// writeState/readState serialize the engine's boundary state.
	writeState(cw *checkpoint.Writer) error
	readState(cr *checkpoint.Reader) error
}

// session is the engine-independent state machine shared by
// ClusterSession (and so SimSession) and DistSession.
type session struct {
	eng  stepper
	opts sessionOptions
	met  sessionMetrics
	// kind names the engine in checkpoint headers ("cluster" for both
	// in-process kinds, "coord"); warmupIntervals and intervals are the
	// defaulted scenario's prologue and run lengths.
	kind            string
	warmupIntervals int
	intervals       int
	next            int
	warmupDone      int
	trained         bool
	finished        bool
	closed          bool
	failed          error
	// sinkBroken is set when a WriteRecord fails partway through an
	// interval: the sink's buffer then holds a torn interval, so no
	// further flush may push it out — the sink's backing store keeps
	// the whole-interval prefix of the last successful flush.
	sinkBroken bool
	// ckpt is reset for every Checkpoint call, so the section buffer
	// (about one checkpoint in size) is grown once per session. Close
	// lets it go.
	ckpt checkpoint.Writer
}

// newSession wraps an engine adapter; cfg is the defaulted scenario,
// and rowBS the BS of the engine's rows (-1: the monolithic column
// set).
func newSession(eng stepper, kind string, cfg Config, rowBS int, o sessionOptions) session {
	if cs, ok := o.sink.(*CSVSink); ok {
		// The session knows the schema before any record exists, so an
		// empty run still gets its CSV header.
		cs.SetSchema(TraceRecord{BS: rowBS})
	}
	return session{
		eng:             eng,
		opts:            o,
		met:             newSessionMetrics(o.metrics),
		kind:            kind,
		warmupIntervals: cfg.WarmupIntervals,
		intervals:       cfg.NumIntervals,
	}
}

// Interval implements Session.
func (s *session) Interval() int { return s.next }

// Done implements Session.
func (s *session) Done() bool { return s.finished }

// Step implements Session.
func (s *session) Step(ctx context.Context) (IntervalReport, error) {
	var zero IntervalReport
	switch {
	case s.closed:
		return zero, ErrSessionClosed
	case s.failed != nil:
		return zero, s.failed
	case s.finished:
		return zero, ErrSessionDone
	}
	// Boundary cancellation: no engine state has been touched, so the
	// session stays resumable with a fresh context.
	if err := ctx.Err(); err != nil {
		if ferr := s.flush(); ferr != nil {
			return zero, s.fail(ferr)
		}
		return zero, err
	}
	// Wall-clock timing is always on (IntervalReport carries it even
	// without a registry); it is out-of-band, so the trace bytes are
	// unaffected.
	start := time.Now()
	var prologue time.Duration
	ranPrologue := s.warmupDone < s.warmupIntervals || !s.trained
	// Prologue, resumable at every internal boundary.
	for s.warmupDone < s.warmupIntervals {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		if err := s.eng.warmupStep(ctx); err != nil {
			return zero, s.fail(err)
		}
		s.warmupDone++
	}
	if !s.trained {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		if err := s.eng.trainAndBuild(ctx); err != nil {
			return zero, s.fail(err)
		}
		s.trained = true
	}
	if ranPrologue {
		prologue = time.Since(start)
	}
	rep, err := s.eng.stepInterval(ctx, s.next)
	if err != nil {
		// Mid-interval failure: the completed intervals are already on
		// the sink; flush so the partial trace survives, then fail.
		_ = s.flush()
		return zero, s.fail(err)
	}
	rep.Interval = s.next
	rep.Groups = len(rep.Records)
	for _, r := range rep.Records {
		rep.PredictedRBs += r.PredictedRBs
		rep.ActualRBs += r.ActualRBs
	}
	if s.opts.sink != nil {
		tWrite := s.met.sinkWrite.Start()
		for _, r := range rep.Records {
			if werr := s.opts.sink.WriteRecord(r); werr != nil {
				s.sinkBroken = true
				s.met.sinkErrors.Inc()
				return zero, s.fail(fmt.Errorf("%w: interval %d: %w", ErrSink, s.next, werr))
			}
		}
		s.met.sinkWrite.ObserveSince(tWrite)
	}
	if ferr := s.flush(); ferr != nil {
		return zero, s.fail(ferr)
	}
	s.next++
	if s.next >= s.intervals {
		if err := s.eng.finish(); err != nil {
			return zero, s.fail(err)
		}
		s.finished = true
	}
	rep.StepDuration = time.Since(start)
	rep.PrologueDuration = prologue
	s.met.step.Observe(rep.StepDuration)
	s.met.steps.Inc()
	if nerr := s.notify(rep); nerr != nil {
		return rep, nerr
	}
	return rep, nil
}

// notify runs the observers and the progress callback, converting a
// callback panic into an ErrObserver-wrapped error. The interval had
// already completed and flushed when the panic fired, so the caller
// surfaces the error without failing the session.
func (s *session) notify(rep IntervalReport) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: interval %d: %v", ErrObserver, rep.Interval, r)
		}
	}()
	for _, ob := range s.opts.observers {
		ob(rep)
	}
	if s.opts.progress != nil {
		s.opts.progress(s.next, s.intervals)
	}
	return nil
}

// Close implements Session. The first Close flushes and releases;
// calling it again is an error (wrapping ErrSessionClosed) so a
// double-Close in caller cleanup paths is loud instead of silently
// re-flushing a sink whose ownership has moved on. Close after a
// failed Step is safe: a broken sink is never flushed again.
func (s *session) Close() error {
	if s.closed {
		return fmt.Errorf("close of closed session: %w", ErrSessionClosed)
	}
	s.closed = true
	s.eng.close()
	s.ckpt = checkpoint.Writer{} // a closed session takes no checkpoint
	return s.flush()
}

func (s *session) fail(err error) error {
	s.failed = err
	return err
}

func (s *session) flush() error {
	if s.opts.sink == nil || s.sinkBroken {
		return nil
	}
	tFlush := s.met.sinkFlush.Start()
	if err := s.opts.sink.Flush(); err != nil {
		// A failed flush leaves an unknown prefix of the buffer on the
		// backing store; pushing more bytes could tear a record, so
		// the sink is dead to this session from here on.
		s.sinkBroken = true
		s.met.sinkErrors.Inc()
		return fmt.Errorf("%w: flush: %w", ErrSink, err)
	}
	s.met.sinkFlush.ObserveSince(tFlush)
	return nil
}

func buildOptions(opts []SessionOption) sessionOptions {
	var o sessionOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// clusterStepper adapts the cluster engine to the session state
// machine: the engine over one all-station cell for Open, over one
// cell per station for OpenCluster.
type clusterStepper struct {
	eng *cluster.Engine
	// unscheduled is the configuration the checkpoint header hashes:
	// the defaulted one, with Parallelism, which only schedules the
	// run, at its default.
	unscheduled any
	trace       *ClusterTrace // stamped at finish
}

func (a *clusterStepper) warmupStep(ctx context.Context) error { return a.eng.WarmupStep(ctx) }

func (a *clusterStepper) trainAndBuild(ctx context.Context) error { return a.eng.TrainAndBuild(ctx) }

func (a *clusterStepper) stepInterval(ctx context.Context, interval int) (IntervalReport, error) {
	recs, err := a.eng.StepInterval(ctx, interval)
	if err != nil {
		return IntervalReport{}, err
	}
	return IntervalReport{
		Records:        recs,
		Handovers:      a.eng.Handovers(),
		ChurnedUsers:   a.eng.Churned(),
		CellsDown:      a.eng.CellsDown(),
		EvacuatedTwins: a.eng.EvacuatedTwins(),
	}, nil
}

func (a *clusterStepper) finish() error { a.trace = a.eng.Finish(); return nil }
func (a *clusterStepper) close()        { a.eng.Close() }

func (a *clusterStepper) fingerprint() (uint64, error) {
	return checkpoint.Fingerprint(a.unscheduled)
}

func (a *clusterStepper) writeState(cw *checkpoint.Writer) error { return a.eng.WriteState(cw) }

func (a *clusterStepper) readState(cr *checkpoint.Reader) error { return a.eng.ReadState(cr) }

// ClusterSession is the cluster engine's Session. It satisfies the
// Session interface and additionally exposes the merged ClusterTrace.
type ClusterSession struct {
	session
	st *clusterStepper
}

// Trace returns the merged cluster trace: the full record set once
// Done (or run-level and per-cell statistics only, when a sink owned
// the records). Before completion it returns a snapshot of the
// completed intervals.
func (s *ClusterSession) Trace() *ClusterTrace {
	if s.st.trace != nil {
		return s.st.trace
	}
	return s.st.eng.Finish()
}

// openCluster wraps eng in a session whose checkpoints fingerprint
// unscheduled and whose rows carry rowBS's column set.
func openCluster(eng *cluster.Engine, unscheduled any, rowBS int, o sessionOptions) *ClusterSession {
	eng.SetRetainRecords(o.sink == nil)
	eng.SetMetrics(o.metrics)
	st := &clusterStepper{eng: eng, unscheduled: unscheduled}
	return &ClusterSession{session: newSession(st, "cluster", eng.Config().Sim, rowBS, o), st: st}
}

// OpenCluster validates cfg and returns a session over one cell per
// base station. It builds every cell and places and builds the whole
// population — each user's preference, mobility model, link and cold
// twin, drawn from its own stream — so the first Step starts from the
// users' initial state. Degenerate scenarios (zero users or intervals)
// fail with ErrEmptyScenario.
func OpenCluster(cfg ClusterConfig, opts ...SessionOption) (*ClusterSession, error) {
	return openClusterWith(cluster.New, cfg, opts)
}

// openClusterWith is OpenCluster over the engine newEngine constructs.
func openClusterWith(newEngine func(cluster.Config) (*cluster.Engine, error), cfg ClusterConfig, opts []SessionOption) (*ClusterSession, error) {
	eng, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	return openCluster(eng, eng.Config().Unscheduled(), 0, buildOptions(opts)), nil
}

// SimSession is the monolithic Session: the cluster session over one
// cell that covers every station, so no twin is ever handed over. Its
// Trace is that cell's, rows tagged BS -1; the embedded ClusterSession
// reports the same run as a one-cell ClusterTrace.
type SimSession struct{ *ClusterSession }

// Trace returns the run's trace: the full record set once Done (or
// run-level statistics only, when a sink owned the records). Before
// completion it carries the records of the completed intervals and
// the run-level fields as they stand.
func (s *SimSession) Trace() *Trace { return s.st.eng.WholeTrace() }

// Open validates cfg and returns a monolithic session. Like
// OpenCluster it builds the engine and places and builds the whole
// population, so the first Step starts from the users' initial state.
// Degenerate scenarios (zero users or intervals) fail with
// ErrEmptyScenario.
func Open(cfg Config, opts ...SessionOption) (*SimSession, error) {
	return openWith(cluster.NewWhole, cfg, opts)
}

// openWith is Open over the engine newEngine constructs.
func openWith(newEngine func(Config) (*cluster.Engine, error), cfg Config, opts []SessionOption) (*SimSession, error) {
	eng, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	// The checkpoint fingerprints the scenario itself rather than a
	// cluster configuration, so a monolithic checkpoint and a cluster
	// one never resume as each other, even over one station.
	unscheduled := eng.Config().Sim
	unscheduled.Parallelism = 0
	return &SimSession{openCluster(eng, unscheduled, -1, buildOptions(opts))}, nil
}

// AccuracyTracker folds a run's accuracy metrics from interval
// reports, so a session streaming to a sink can score itself without
// ever retaining trace records. Attach it with
// WithObserver(tracker.Observe); the results match the Trace methods
// of the same name over the full record set.
type AccuracyTracker struct {
	radio   stats.OnlineMAPE
	compute stats.OnlineVolume
	waste   stats.OnlineVolume
}

// Observe folds one interval report. Pass it to WithObserver.
func (t *AccuracyTracker) Observe(rep IntervalReport) {
	for _, r := range rep.Records {
		t.radio.Add(r.PredictedRBs, r.ActualRBs)
		t.compute.Add(r.PredictedCycles, r.ActualCycles)
		t.waste.Add(r.PredictedWasteBits, r.ActualWasteBits)
	}
}

// RadioAccuracy returns the running 1 − MAPE over radio demand.
func (t *AccuracyTracker) RadioAccuracy() (float64, error) { return t.radio.Accuracy() }

// ComputeAccuracy returns the running volume accuracy over
// transcoding demand.
func (t *AccuracyTracker) ComputeAccuracy() (float64, error) { return t.compute.Accuracy() }

// WasteAccuracy returns the running volume accuracy over wasted
// traffic.
func (t *AccuracyTracker) WasteAccuracy() (float64, error) { return t.waste.Accuracy() }
