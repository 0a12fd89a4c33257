// This file is the distributed Session: the one-cell-per-station
// cluster scenario executed by a supervisor driving worker processes (or in-process
// worker goroutines) through internal/coord. The session surface is
// identical to ClusterSession — Step, sinks, observers, Checkpoint /
// ResumeDistributed — and the merged trace is bit-identical to
// OpenCluster at the same seed for any worker count, because workers
// exchange handover twins at every boundary in global user-id order.
//
// The distributed layer adds a failure model on top: workers
// heartbeat between frames, ship a checkpoint at least every 8th
// boundary, and a worker that dies (crash, SIGKILL, torn frame, missed
// heartbeat) is restarted with exponential backoff from its last
// shipped checkpoint and replays the boundaries since then. The policy
// is fixed: 100ms beats with 10 misses allowed, 3 restarts per worker
// backing off from 25ms to 1s, and a 10-minute deadline per boundary;
// past either the run fails with ErrWorkerFailed.
package dtmsvs

import (
	"context"
	"fmt"
	"io"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/cluster"
	"dtmsvs/internal/coord"
)

// ErrWorkerFailed marks a distributed run that lost a worker more
// times than the restart budget allows, or a boundary that outlived
// its deadline. Match with errors.Is.
var ErrWorkerFailed = coord.ErrWorkerFailed

// MaybeWorker turns the current process into a distributed worker
// over stdin/stdout when it was re-exec'ed by WithWorkerProcesses,
// never returning in that case. Call it at the top of main in any
// binary that opens distributed sessions with WithWorkerProcesses().
func MaybeWorker() { coord.MaybeWorker() }

// WithWorkerProcesses runs each worker as a child process speaking
// binary frames over stdin/stdout, so worker death is real process
// death (SIGKILL recoverable by the supervisor). The session re-execs
// the running binary, whose main must call MaybeWorker; a child whose
// main does not fails its own session's first Step with a protocol
// error instead of re-execing again. Without this option workers run
// as goroutines inside the session's own process — same protocol, no
// processes.
func WithWorkerProcesses() SessionOption {
	return func(o *sessionOptions) { o.workerTransport = coord.SelfTransport() }
}

// distStepper adapts the coord supervisor to the session state
// machine.
type distStepper struct {
	sup     *coord.Supervisor
	cfg     ClusterConfig // defaulted
	workers int
	retain  bool
	records []cluster.Record
	trace   *ClusterTrace // stamped at finish
}

func (a *distStepper) warmupStep(ctx context.Context) error { return a.sup.WarmupStep(ctx) }

func (a *distStepper) trainAndBuild(ctx context.Context) error { return a.sup.TrainAndBuild(ctx) }

func (a *distStepper) stepInterval(ctx context.Context, interval int) (IntervalReport, error) {
	recs, err := a.sup.StepInterval(ctx, interval)
	if err != nil {
		return IntervalReport{}, err
	}
	if a.retain {
		a.records = append(a.records, recs...)
	}
	return IntervalReport{
		Records:      recs,
		Handovers:    a.sup.Handovers(),
		ChurnedUsers: a.sup.Churned(),
	}, nil
}

// finish assembles the merged ClusterTrace from the workers' final
// stats, shaped exactly like the single-process engine's Finish.
func (a *distStepper) finish() error {
	cells, hits, misses, err := a.sup.FinalStats(context.Background())
	if err != nil {
		return fmt.Errorf("final worker stats: %w", err)
	}
	tr := &ClusterTrace{Records: a.records, Handovers: a.sup.Handovers()}
	tr.SetCells(cells, hits, misses)
	a.trace = tr
	return nil
}

func (a *distStepper) close() { _ = a.sup.Close() }

func (a *distStepper) fingerprint() (uint64, error) {
	return checkpoint.Fingerprint(struct {
		Cluster ClusterConfig `json:"cluster"`
		Workers int           `json:"workers"`
	}{a.cfg.Unscheduled(), a.workers})
}

// writeState captures the distributed boundary: one checkpoint blob
// per worker, fetched fresh over the wire at this boundary and framed
// as it arrived, without another copy.
func (a *distStepper) writeState(cw *checkpoint.Writer) error {
	blobs, err := a.sup.CheckpointBlobs(context.Background())
	if err != nil {
		return err
	}
	if err := cw.Section("coord", func(e *checkpoint.Enc) {
		e.Int(a.workers)
	}); err != nil {
		return err
	}
	for i, b := range blobs {
		if err := cw.BlobSection(fmt.Sprintf("worker%d", i), b); err != nil {
			return err
		}
	}
	return nil
}

// readState seeds every worker with its blob — the section payload the
// reader read, not a copy of it; the workers themselves validate kind
// and fingerprint when they restore.
func (a *distStepper) readState(cr *checkpoint.Reader) error {
	d, err := cr.Section("coord")
	if err != nil {
		return err
	}
	workers := d.Int()
	if err := d.Close(); err != nil {
		return err
	}
	if workers != a.workers {
		return fmt.Errorf("checkpoint partitions %d workers, session runs %d: %w",
			workers, a.workers, ErrCheckpointConfig)
	}
	blobs := make([][]byte, a.workers)
	for i := range blobs {
		d, err := cr.Section(fmt.Sprintf("worker%d", i))
		if err != nil {
			return err
		}
		blobs[i] = d.Blob()
		if err := d.Close(); err != nil {
			return err
		}
	}
	return a.sup.SetResume(blobs)
}

// DistSession is the distributed cluster Session. It satisfies the
// Session interface and exposes the merged ClusterTrace plus the
// supervisor's recovery counters.
type DistSession struct {
	session
	st *distStepper
}

// Trace returns the merged cluster trace: the full record set once
// Done (or run-level and per-cell statistics only, when a sink owned
// the records). Before completion it returns a snapshot of the
// completed intervals without per-cell statistics.
func (s *DistSession) Trace() *ClusterTrace {
	if s.st.trace != nil {
		return s.st.trace
	}
	return &ClusterTrace{
		Records:   append([]cluster.Record(nil), s.st.records...),
		Handovers: s.st.sup.Handovers(),
	}
}

// WorkerRestarts reports how many worker restarts recovery has
// performed so far.
func (s *DistSession) WorkerRestarts() int { return s.st.sup.Restarts() }

// HeartbeatMisses reports how many worker losses were declared by
// the heartbeat deadline.
func (s *DistSession) HeartbeatMisses() int { return s.st.sup.HeartbeatMisses() }

// OpenDistributed validates cfg and returns a supervised distributed
// session over the given number of workers. No worker is spawned and
// no simulation work happens until the first Step. Workers default
// to in-process goroutines; see WithWorkerProcesses for real
// processes.
func OpenDistributed(cfg ClusterConfig, workers int, opts ...SessionOption) (*DistSession, error) {
	o := buildOptions(opts)
	cc := coord.Config{
		Cluster:   cfg,
		Workers:   workers,
		Transport: o.workerTransport,
		Metrics:   o.metrics,
	}
	if o.tuneSupervisor != nil {
		o.tuneSupervisor(&cc)
	}
	sup, err := coord.New(cc)
	if err != nil {
		return nil, err
	}
	st := &distStepper{
		sup:     sup,
		cfg:     sup.Cluster(),
		workers: workers,
		retain:  o.sink == nil,
	}
	return &DistSession{session: newSession(st, "coord", st.cfg.Sim, 0, o), st: st}, nil
}

// ResumeDistributed opens a distributed session from cfg and
// restores a checkpoint previously written by
// (*DistSession).Checkpoint under the identical configuration and
// worker count. The resumed run's trace suffix is bit-identical to
// the uninterrupted run — the same guarantee crash recovery relies
// on at every boundary.
func ResumeDistributed(cfg ClusterConfig, workers int, r io.Reader, opts ...SessionOption) (*DistSession, error) {
	s, err := OpenDistributed(cfg, workers, opts...)
	return resumeOpened(s, err, r)
}
