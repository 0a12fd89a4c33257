package main

import (
	"io"

	"dtmsvs"
)

type engine int

const (
	engMono    engine = iota // dtmsvs.Open
	engCluster               // dtmsvs.OpenCluster, one shard per cell
	engDist                  // dtmsvs.OpenDistributed, in-process workers
)

// workload is one session scenario. Everything but the seed is fixed
// here; the program under test only ever sees the generated Config.
type workload struct {
	name      string
	engine    engine
	users     int
	cells     int
	intervals int
	// reps is how many repetitions a run of nominalSeconds makes: a fixed
	// count, so that every run pools the same number of samples whatever
	// state the box is in. A shorter -seconds scales it down.
	reps int
	// On a workload whose scenario takes no checkpoint, the harness takes
	// ckptSamples of them back to back at the mid-run boundary of every
	// repetition, outside the throughput window, and after the run resumes
	// resumeSamples times from the last: one call of either is too noisy
	// to report. The fewer repetitions a workload has, the more it takes.
	ckptSamples   int
	resumeSamples int
	workers       int     // dist only
	fixedK        int     // > 0 bypasses DDQN training
	churn         float64 // users replaced per interval
	// durable: NDJSON sink, a checkpoint file after every interval, and
	// the session is closed and resumed from that file mid-run. The
	// other workloads checkpoint to memory mid-run and resume from that
	// after the run, outside the throughput window.
	durable bool
	// radioFloor is the radio prediction accuracy (Fig. 3(b)) below
	// which the run fails, at these sizes.
	radioFloor float64
}

// nominalSeconds is the -seconds the sizes below are cut for.
const nominalSeconds = 25

// The sizes are the issue's with repetitions cut (never users, which
// set the O(N²) learning share) until one run fits the 25 s the
// contract's total-time cap leaves per run on two cores; README.md says
// why steady_cluster also trades intervals for a second repetition.
var workloads = []workload{
	// Prologue (CNN + DDQN + K-means training) is about 90 % of wall:
	// what a learning-path change must move and a boundary change must not.
	{name: "learn_mono", engine: engMono, users: 2000, cells: 4, intervals: 8, reps: 4, ckptSamples: 5, resumeSamples: 2, radioFloor: 0.90},
	// Steady-state intervals are about two thirds of wall, and the run is
	// long enough for the cumulative-view growth to show.
	{name: "steady_cluster", engine: engCluster, users: 4000, cells: 8, intervals: 48, reps: 2, ckptSamples: 8, resumeSamples: 2, radioFloor: 0.90},
	// The same scenario, shorter, with every boundary paying frames, twin
	// export/import and a per-worker checkpoint ack.
	{name: "dist_boundary", engine: engDist, users: 4000, cells: 8, intervals: 24, reps: 1, ckptSamples: 15, resumeSamples: 5, workers: 2, radioFloor: 0.90},
	// Checkpoint encode to disk, decode on resume and a text trace read
	// back; FixedK keeps learning out of it, churn puts cold twins in.
	{
		name: "durable_resume", engine: engCluster, users: 4000, cells: 8, intervals: 24, reps: 2,
		fixedK: 4, churn: 0.05, durable: true, radioFloor: 0.90,
	},
}

// repetitions is how many repetitions a run of the given length makes.
func (w workload) repetitions(seconds float64) int {
	if seconds >= nominalSeconds {
		return w.reps
	}
	return max(1, int(float64(w.reps)*seconds/nominalSeconds))
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config generates the workload's input from the seed. A monolithic
// workload uses only the Sim half.
func (w workload) config(seed int64) dtmsvs.ClusterConfig {
	c := dtmsvs.DefaultConfig(seed)
	c.NumUsers = w.users
	c.NumBS = w.cells
	c.NumIntervals = w.intervals
	c.FixedK = w.fixedK
	c.ChurnPerInterval = w.churn
	c.Grouping.UseCNN = true
	return dtmsvs.ClusterConfig{Sim: c}
}

// open starts the workload's session, resuming from ckpt when non-nil.
func (w workload) open(cfg dtmsvs.ClusterConfig, ckpt io.Reader, opts ...dtmsvs.SessionOption) (dtmsvs.Session, error) {
	var (
		s   dtmsvs.Session
		err error
	)
	switch {
	case w.engine == engMono && ckpt == nil:
		s, err = dtmsvs.Open(cfg.Sim, opts...)
	case w.engine == engMono:
		s, err = dtmsvs.Resume(cfg.Sim, ckpt, opts...)
	case w.engine == engCluster && ckpt == nil:
		s, err = dtmsvs.OpenCluster(cfg, opts...)
	case w.engine == engCluster:
		s, err = dtmsvs.ResumeCluster(cfg, ckpt, opts...)
	case ckpt == nil:
		s, err = dtmsvs.OpenDistributed(cfg, w.workers, opts...)
	default:
		s, err = dtmsvs.ResumeDistributed(cfg, w.workers, ckpt, opts...)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// engineUsers is the population one sim engine holds: the size the
// single-engine layer probes run at.
func (w workload) engineUsers() int {
	if w.engine == engMono {
		return w.users
	}
	return w.users / w.cells
}

// ckptAt is the interval boundary of the mid-run checkpoint (and, for a
// durable workload, of the close-and-resume).
func (w workload) ckptAt() int {
	if w.intervals < 2 {
		return 1
	}
	return w.intervals / 2
}
