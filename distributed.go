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
// shipped checkpoint and replays the boundaries since then. The
// restart budget and the adoption fallback are session options below.
package dtmsvs

import (
	"context"
	"fmt"
	"io"
	"time"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/cluster"
	"dtmsvs/internal/coord"
	"dtmsvs/internal/faultinject"
)

// ErrWorkerFailed marks a distributed run that lost a worker more
// times than the restart budget allows, with adoption disabled or
// already spent on that worker. Match with errors.Is.
var ErrWorkerFailed = coord.ErrWorkerFailed

// ProcFault schedules one deterministic process fault on a worker:
// an abrupt kill, a hang (heartbeats and frames stall), or a
// garbage frame (torn bytes on the wire). Used with WithProcFaults
// for chaos testing the supervisor's recovery path.
type ProcFault = faultinject.ProcFault

// ProcFaultKind selects what a ProcFault does to its worker.
type ProcFaultKind = faultinject.ProcFaultKind

const (
	// ProcKill terminates the worker abruptly (SIGKILL for process
	// workers, torn pipes for in-process ones).
	ProcKill = faultinject.ProcKill
	// ProcHang stalls the worker — no heartbeats, no frames — until
	// the supervisor's liveness deadline declares it dead.
	ProcHang = faultinject.ProcHang
	// ProcGarbage makes the worker emit a corrupt frame.
	ProcGarbage = faultinject.ProcGarbage
)

// ProcFaultPlan derives one deterministic process fault from the run
// seed: same seed, same fault. The worker, interval and kind are
// drawn from a stream disjoint from every simulation stream, so a
// faulted run replays exactly.
func ProcFaultPlan(seed int64, workers, intervals int) ProcFault {
	return faultinject.ProcPlan(seed, workers, intervals)
}

// WorkerSelfExec marks a process as a re-exec'ed distributed worker.
// A binary whose main calls MaybeWorker first thing becomes the
// worker when spawned with this environment variable set; see
// WithWorkerProcesses.
const WorkerSelfExec = coord.WorkerEnv

// MaybeWorker turns the current process into a distributed worker
// over stdin/stdout if WorkerSelfExec is set in the environment,
// never returning in that case. Call it at the top of main in any
// binary that opens distributed sessions with WithWorkerProcesses().
func MaybeWorker() { coord.MaybeWorker() }

// RunWorker speaks the worker side of the supervisor protocol over
// the given byte channels until shutdown or a fatal error. It is the
// whole body of a dedicated worker binary (cmd/dtworker); binaries
// that are sometimes workers use MaybeWorker instead.
func RunWorker(r io.Reader, w io.Writer) error { return coord.RunWorker(r, w) }

// WithWorkerProcesses runs each worker as a child process speaking
// binary frames over stdin/stdout, so worker death is real process
// death (SIGKILL recoverable by the supervisor). With no arguments
// the session re-execs the current binary, whose main must call
// MaybeWorker; with arguments, argv names a dedicated worker binary
// such as cmd/dtworker. Without this option workers run as
// goroutines inside the session's own process — same protocol, no
// processes.
func WithWorkerProcesses(argv ...string) SessionOption {
	return func(o *sessionOptions) {
		if len(argv) == 0 {
			o.workerTransport = coord.SelfTransport()
			return
		}
		o.workerTransport = coord.Process(argv, WorkerSelfExec+"=1")
	}
}

// WithWorkerRestartPolicy bounds crash recovery: each worker may be
// restarted up to maxRestarts times (negative forbids restarts
// entirely), backing off from backoff and doubling per consecutive
// restart. The default is 3 restarts from 25ms.
func WithWorkerRestartPolicy(maxRestarts int, backoff time.Duration) SessionOption {
	return func(o *sessionOptions) {
		if maxRestarts == 0 {
			maxRestarts = -1
		}
		o.workerRestarts = maxRestarts
		o.workerBackoff = backoff
	}
}

// WithWorkerAdoption degrades gracefully instead of failing: a
// worker that exhausts its restart budget is adopted — respawned once
// more as an in-process goroutine from the last shipped checkpoint, its
// remaining scheduled faults stripped. The trace stays bit-identical;
// only the process topology degrades. An adopted worker has no budget
// left: losing it too fails the run with ErrWorkerFailed.
func WithWorkerAdoption() SessionOption {
	return func(o *sessionOptions) { o.workerAdopt = true }
}

// WithWorkerHeartbeat tunes liveness detection: workers beat every
// period, and missing missBudget consecutive beats declares a worker
// dead. The default is 100ms × 10.
func WithWorkerHeartbeat(period time.Duration, missBudget int) SessionOption {
	return func(o *sessionOptions) {
		o.workerHeartbeat = period
		o.workerHeartbeatMiss = missBudget
	}
}

// WithWorkerStepTimeout bounds one distributed boundary (all
// workers, recoveries included). The default is 10 minutes.
func WithWorkerStepTimeout(d time.Duration) SessionOption {
	return func(o *sessionOptions) { o.workerStepTimeout = d }
}

// WithProcFaults schedules deterministic process faults on the
// distributed run — the chaos-test hook. hang bounds how long a
// ProcHang fault stalls its worker (0 = 30s).
func WithProcFaults(hang time.Duration, faults ...ProcFault) SessionOption {
	return func(o *sessionOptions) {
		o.procFaults = append(o.procFaults, faults...)
		o.workerHang = hang
	}
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

// WorkerAdoptions reports how many workers the supervisor has
// adopted in-process after exhausted restart budgets.
func (s *DistSession) WorkerAdoptions() int { return s.st.sup.Adoptions() }

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
	sup, err := coord.New(coord.Config{
		Cluster:       cfg,
		Workers:       workers,
		Transport:     o.workerTransport,
		Heartbeat:     o.workerHeartbeat,
		HeartbeatMiss: o.workerHeartbeatMiss,
		StepTimeout:   o.workerStepTimeout,
		MaxRestarts:   o.workerRestarts,
		Backoff:       o.workerBackoff,
		Adopt:         o.workerAdopt,
		Faults:        o.procFaults,
		HangDuration:  o.workerHang,
		Metrics:       o.metrics,
	})
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
