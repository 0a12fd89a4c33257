// Command dtsim runs a full digital-twin multicast streaming
// simulation through the interval-stepped Session API and writes the
// trace (and a human-readable summary to stderr).
//
// Usage:
//
//	dtsim -users 100 -bs 4 -intervals 24 -seed 42 -out trace.ndjson -format ndjson
//	dtsim -users 50000 -bs 16 -cells -intervals 12 -out city.ndjson -format ndjson
//
// Every run steps the cluster engine. By default it runs over one
// coverage cell that covers every station: the monolithic engine,
// with one edge cache and no handovers. With -cells it runs one cell
// per BS instead: private edge caches, cells stepped concurrently,
// and deterministic twin handover between intervals.
//
// With -workers N the cluster runs under the multi-worker supervisor:
// cells are partitioned across N workers that exchange handover twins
// at every boundary and ship a checkpoint at least every 8th, so a
// crashed worker is restarted from its last checkpoint and replayed
// without perturbing the trace (up to 3 restarts per worker; the
// summary then adds a "recovered:" line). By default workers are
// goroutines; -worker-procs re-execs this binary as real child
// processes (SIGKILL-recoverable). The merged trace is bit-identical
// to the same run with -cells and without -workers.
//
//	dtsim -users 50000 -bs 16 -intervals 12 -workers 4 -worker-procs -out city.ndjson -format ndjson
//
// The "ndjson", "csv" and "bin" formats stream: records are flushed
// to -out at every interval boundary, so the process never holds the
// full trace in heap and an interrupt (Ctrl-C) leaves a well-formed
// whole-interval prefix behind. "bin" is the compact binary columnar
// format (internal/tracebin); add -bin-compress
// for per-block DEFLATE. "json" buffers the run and writes one JSON
// array at the end (the partial array is still written on interrupt).
// Any of the four decodes with dtreport -trace or ReadTraceRecords,
// which auto-detect the format. -progress prints per-interval stats
// to stderr.
//
// Checkpointing: -checkpoint PATH writes the session's full
// deterministic state to PATH (atomically, via temp file + rename)
// after every -checkpoint-every intervals and again when an interrupt
// lands on an interval boundary. An interrupt inside an interval
// leaves the last boundary's file in place (the interrupted interval
// was never flushed); either way dtsim prints the interval the file
// resumes from and exits 0. -resume PATH restores a checkpoint
// written under the identical flags and continues the run; the
// resumed trace suffix is bit-identical to what the uninterrupted run
// would have produced, so prefix + suffix reassemble the full trace.
//
//	dtsim -users 100 -intervals 24 -out part1.ndjson -format ndjson -checkpoint run.ckpt
//	dtsim -users 100 -intervals 24 -out part2.ndjson -format ndjson -resume run.ckpt
//
// Failure injection (one cell per station, -cells): -fail-cell N -fail-at K
// quarantines cell N at the start of interval K — its twins are
// evacuated to the surviving cells and the run continues in degraded
// mode; -revive-at R brings the cell back empty and cold at interval
// R. -fault-seed S derives the whole plan (cell, failure interval,
// optional revival) deterministically from S instead. Degraded runs
// are bit-reproducible: the same flags always fail the same cell at
// the same boundary with the same evacuation.
//
//	dtsim -users 200 -bs 4 -cells -intervals 12 -fail-cell 1 -fail-at 3 -revive-at 8
//	dtsim -users 200 -bs 4 -cells -intervals 12 -fault-seed 7
//
// Observability: -metrics-addr :9090 serves live Prometheus metrics
// on /metrics (per-stage duration histograms, per-cell cache
// counters, sink error counter, ...) plus net/http/pprof profiling
// under /debug/pprof/ for the duration of the run. -metrics-out
// FILE writes the final metrics snapshot as JSON; render it with
// `dtreport -timings FILE`. Metrics never change the trace: output
// is bit-identical with or without them. All progress and log
// chatter goes to stderr, so stdout stays a clean trace stream when
// -out is not set ("-out -" makes stdout explicit).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"dtmsvs"
	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/obs"
)

func main() {
	// A re-exec'ed child (dtsim -workers N -worker-procs) becomes a
	// frame worker here and never reaches the flag parser.
	dtmsvs.MaybeWorker()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dtsim:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		users      = flag.Int("users", 100, "number of users")
		bs         = flag.Int("bs", 4, "number of base stations")
		intervals  = flag.Int("intervals", 24, "reservation intervals to simulate")
		seed       = flag.Int64("seed", 42, "random seed")
		fixedK     = flag.Int("fixed-k", 0, "bypass the DDQN with a fixed grouping number (0 = use DDQN)")
		noCNN      = flag.Bool("no-cnn", false, "disable the 1D-CNN compressor (raw-feature baseline)")
		budget     = flag.Int("rb-budget", 0, "shared RB budget for reservation-with-admission (0 = unlimited)")
		par        = flag.Int("parallel", 0, "worker goroutines for simulation and grouping fan-out (0 = all cores; trace is identical for any value)")
		cells      = flag.Bool("cells", false, "run one cell per BS (default: one cell over every BS, the monolithic engine)")
		format     = flag.String("format", "json", `trace format: "json" (buffered array), "ndjson", "csv" or "bin" (streamed per interval; "bin" is the binary columnar format)`)
		binGzip    = flag.Bool("bin-compress", false, `with -format bin, DEFLATE-compress each column block`)
		out        = flag.String("out", "", "write the trace to this file (default stdout)")
		progress   = flag.Bool("progress", false, "print per-interval stats to stderr")
		ckptPath   = flag.String("checkpoint", "", "write the session state to this file at interval boundaries (atomic temp-file + rename)")
		ckptEvery  = flag.Int("checkpoint-every", 1, "with -checkpoint, write every N intervals")
		resume     = flag.String("resume", "", "resume from a checkpoint file written under identical flags (trace output holds the resumed suffix)")
		metAddr    = flag.String("metrics-addr", "", `serve live Prometheus /metrics and /debug/pprof on this address (e.g. ":9090") for the duration of the run`)
		metOut     = flag.String("metrics-out", "", "write the end-of-run metrics snapshot to this file as JSON (render with dtreport -timings)")
		workersN   = flag.Int("workers", 0, "run the supervised distributed engine with this many workers (0 = no supervisor; implies one cell per BS)")
		workerProc = flag.Bool("worker-procs", false, "with -workers, run each worker as a child process (re-execs this binary) instead of an in-process goroutine")
		failCell   = flag.Int("fail-cell", -1, "cluster: quarantine this cell at -fail-at and evacuate its twins (-1 = no injected failure; requires -cells)")
		failAt     = flag.Int("fail-at", 0, "with -fail-cell, the 0-based interval boundary at which the cell dies")
		reviveAt   = flag.Int("revive-at", -1, "with -fail-cell, the interval boundary at which the cell returns (-1 = never)")
		faultSeed  = flag.Int64("fault-seed", 0, "derive a chaos plan (which cell fails when, and whether it revives) from this seed instead of -fail-cell/-fail-at/-revive-at (0 = none; requires -cells)")
	)
	flag.Parse()
	if *ckptEvery < 1 {
		return fmt.Errorf("-checkpoint-every must be >= 1, got %d", *ckptEvery)
	}

	cfg := dtmsvs.DefaultConfig(*seed)
	cfg.NumUsers = *users
	cfg.NumBS = *bs
	cfg.NumIntervals = *intervals
	cfg.FixedK = *fixedK
	cfg.Grouping.UseCNN = !*noCNN
	cfg.RBBudget = *budget
	cfg.Parallelism = *par

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	w := os.Stdout
	if *out != "" && *out != "-" {
		f, ferr := os.Create(*out)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		w = f
	}

	var opts []dtmsvs.SessionOption
	var reg *dtmsvs.MetricsRegistry
	if *metAddr != "" || *metOut != "" {
		reg = dtmsvs.NewMetricsRegistry()
		opts = append(opts, dtmsvs.WithMetrics(reg))
	}
	if *metAddr != "" {
		srv, addr, serr := obs.Serve(*metAddr, reg)
		if serr != nil {
			return fmt.Errorf("metrics listener: %w", serr)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "dtsim: serving /metrics and /debug/pprof on http://%s\n", addr)
	}
	if *metOut != "" {
		// The snapshot is written on every exit path — interrupted runs
		// included — so partial runs still leave their timings behind.
		defer func() {
			if werr := writeMetrics(*metOut, reg); werr != nil && err == nil {
				err = werr
			}
		}()
	}
	var buffered *dtmsvs.BufferedSink
	switch *format {
	case "json":
		buffered = &dtmsvs.BufferedSink{}
		opts = append(opts, dtmsvs.WithSink(buffered))
	case "ndjson":
		opts = append(opts, dtmsvs.WithSink(dtmsvs.NewNDJSONSink(w)))
	case "csv":
		opts = append(opts, dtmsvs.WithSink(dtmsvs.NewCSVSink(w)))
	case "bin":
		var binOpts []dtmsvs.BinarySinkOption
		if *binGzip {
			binOpts = append(binOpts, dtmsvs.WithBinaryCompression())
		}
		sink, serr := dtmsvs.NewBinarySink(w, binOpts...)
		if serr != nil {
			return serr
		}
		// A run that never flushed still gets its self-describing
		// header.
		defer sink.Close()
		opts = append(opts, dtmsvs.WithSink(sink))
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	if *progress {
		opts = append(opts, dtmsvs.WithObserver(func(rep dtmsvs.IntervalReport) {
			degraded := ""
			if rep.CellsDown > 0 {
				degraded = fmt.Sprintf(" [degraded: %d cell(s) down, %d twin(s) evacuated]",
					rep.CellsDown, rep.EvacuatedTwins)
			}
			fmt.Fprintf(os.Stderr, "dtsim: interval %d: %d groups, predicted %.1f RBs, actual %.1f RBs%s\n",
				rep.Interval, rep.Groups, rep.PredictedRBs, rep.ActualRBs, degraded)
		}))
	}
	// Accuracy folds online from the interval reports, so the summary
	// works even when a streaming sink owns the records.
	var acc dtmsvs.AccuracyTracker
	opts = append(opts, dtmsvs.WithObserver(acc.Observe))

	// Failure injection: an explicit -fail-cell schedule or a
	// seed-derived chaos plan.
	var faults []dtmsvs.CellFault
	switch {
	case *faultSeed != 0:
		faults = []dtmsvs.CellFault{dtmsvs.CellFaultPlan(*faultSeed, *bs, *intervals)}
	case *failCell >= 0:
		faults = []dtmsvs.CellFault{{Cell: *failCell, FailAt: *failAt, ReviveAt: *reviveAt}}
	}
	if len(faults) > 0 {
		if !*cells {
			return fmt.Errorf("failure injection needs one cell per station: set -cells")
		}
		fmt.Fprintf(os.Stderr, "dtsim: chaos plan: cell %d fails at interval %d, revives at %d\n",
			faults[0].Cell, faults[0].FailAt, faults[0].ReviveAt)
	}

	var s dtmsvs.Session
	var summary func() error
	if *workersN > 0 {
		if len(faults) > 0 {
			return fmt.Errorf("cell failure injection is not supported under the distributed supervisor; drop -workers or the fault flags")
		}
		if *workerProc {
			opts = append(opts, dtmsvs.WithWorkerProcesses())
		}
		ccfg := dtmsvs.ClusterConfig{Sim: cfg}
		var ds *dtmsvs.DistSession
		if err := openOrResume(*resume, func(r io.Reader) (err error) {
			if r == nil {
				ds, err = dtmsvs.OpenDistributed(ccfg, *workersN, opts...)
			} else {
				ds, err = dtmsvs.ResumeDistributed(ccfg, *workersN, r, opts...)
			}
			return err
		}); err != nil {
			return err
		}
		s = ds
		summary = func() error {
			if err := printSummary(ds.Trace(), &acc, *users, *bs, *intervals); err != nil {
				return err
			}
			if ds.WorkerRestarts() > 0 {
				fmt.Fprintf(os.Stderr, "dtsim: recovered: %d worker restart(s), %d heartbeat miss(es)\n",
					ds.WorkerRestarts(), ds.HeartbeatMisses())
			}
			return nil
		}
	} else {
		// Without -cells the session is the monolithic one: the same
		// engine over one cell that covers every station.
		ccfg := dtmsvs.ClusterConfig{Sim: cfg, Faults: faults}
		var cs *dtmsvs.ClusterSession
		if err := openOrResume(*resume, func(r io.Reader) (err error) {
			var ms *dtmsvs.SimSession
			switch {
			case *cells && r == nil:
				cs, err = dtmsvs.OpenCluster(ccfg, opts...)
			case *cells:
				cs, err = dtmsvs.ResumeCluster(ccfg, r, opts...)
			case r == nil:
				ms, err = dtmsvs.Open(cfg, opts...)
			default:
				ms, err = dtmsvs.Resume(cfg, r, opts...)
			}
			if ms != nil {
				cs = ms.ClusterSession
			}
			return err
		}); err != nil {
			return err
		}
		s = cs
		summary = func() error { return printSummary(cs.Trace(), &acc, *users, *bs, *intervals) }
	}
	defer s.Close()

	start := s.Interval()
	ckptAt := -1 // the interval the -checkpoint file resumes from
	if *ckptPath != "" && *ckptPath == *resume {
		ckptAt = start
	}
	ckptAt, interrupted, err := stepRun(ctx, s, *ckptPath, *ckptEvery, ckptAt)
	if err != nil {
		return err
	}

	if buffered != nil {
		if err := writeBuffered(w, buffered); err != nil {
			return err
		}
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "dtsim: interrupted after %d of %d intervals; partial trace flushed\n",
			s.Interval(), *intervals)
		switch {
		case ckptAt >= 0:
			fmt.Fprintf(os.Stderr, "dtsim: %s resumes the run from interval %d\n", *ckptPath, ckptAt)
		case *ckptPath != "":
			fmt.Fprintf(os.Stderr, "dtsim: no checkpoint was written before the interrupt\n")
		}
		return nil
	}
	if s.Interval() == start && start > 0 {
		// The checkpoint was taken at the final boundary: the run is
		// already complete and the summary statistics live with the
		// original run's output.
		fmt.Fprintf(os.Stderr, "dtsim: checkpoint already complete (%d intervals); nothing to resume\n", start)
		return nil
	}
	return summary()
}

// stepRun steps s until it is done or ctx is cancelled. With a
// checkpoint path it writes the session there after every every-th
// interval and after the last, and once more when an interrupt lands
// on an interval boundary. ckptAt is the interval the file at path
// resumes from when stepRun starts, -1 for none; stepRun returns the
// one it resumes from when it stops, and whether ctx stopped it.
//
// An interrupt on a boundary leaves the session checkpointable, so the
// file then resumes at exactly the flushed trace prefix. One that lands
// inside a Step fails the session, which refuses the checkpoint with an
// error that carries the cancellation: the file from the last boundary
// is left as it was, and the run resumes from there.
func stepRun(ctx context.Context, s dtmsvs.Session, path string, every, ckptAt int) (int, bool, error) {
	for !s.Done() {
		if _, err := s.Step(ctx); err != nil {
			if !errors.Is(err, context.Canceled) {
				return ckptAt, false, err
			}
			if path != "" {
				switch err := writeCheckpoint(path, s); {
				case err == nil:
					ckptAt = s.Interval()
				case !errors.Is(err, context.Canceled):
					return ckptAt, true, err
				}
			}
			return ckptAt, true, nil
		}
		if path != "" && (s.Done() || s.Interval()%every == 0) {
			if err := writeCheckpoint(path, s); err != nil {
				return ckptAt, false, err
			}
			ckptAt = s.Interval()
		}
	}
	return ckptAt, false, nil
}

// printSummary writes the run's summary to stderr: one line of
// counts and accuracies (with K and silhouette when the run has one
// cell), and one more for a degraded run.
func printSummary(trace *dtmsvs.ClusterTrace, acc *dtmsvs.AccuracyTracker, users, bs, intervals int) error {
	radioAcc, err := acc.RadioAccuracy()
	if err != nil {
		return err
	}
	computeAcc, err := acc.ComputeAccuracy()
	if err != nil {
		return err
	}
	groups := ""
	if len(trace.Cells) == 1 {
		groups = fmt.Sprintf(" K=%d silhouette=%.3f", trace.Cells[0].K, trace.Cells[0].Silhouette)
	}
	fmt.Fprintf(os.Stderr,
		"dtsim: %d users, %d BSs, %d cells, %d intervals →%s handovers=%d churned=%d radio-accuracy=%.2f%% compute-accuracy=%.2f%% cache-hit=%.2f%%\n",
		users, bs, len(trace.Cells), intervals, groups, trace.Handovers, trace.ChurnedUsers,
		radioAcc*100, computeAcc*100, trace.CacheHitRate*100)
	if trace.CellFailures > 0 {
		fmt.Fprintf(os.Stderr,
			"dtsim: degraded run: %d cell failure(s), %d revival(s), %d twin(s) evacuated, %d/%d intervals degraded\n",
			trace.CellFailures, trace.Revivals, trace.EvacuatedTwins,
			trace.DegradedIntervals, intervals)
	}
	return nil
}

// writeMetrics dumps the registry's final snapshot as JSON.
func writeMetrics(path string, reg *dtmsvs.MetricsRegistry) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics-out: %w", err)
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("metrics-out %s: %w", path, err)
	}
	return f.Close()
}

// writeCheckpoint persists the session state atomically: the bytes
// land in a temp file that replaces path only after a full, synced
// write, so a crash mid-checkpoint never destroys the previous one.
func writeCheckpoint(path string, s dtmsvs.Session) error {
	if err := checkpoint.WriteFile(path, s.Checkpoint); err != nil {
		return fmt.Errorf("checkpoint %s: %w", path, err)
	}
	return nil
}

// openOrResume calls open with nil to start a fresh session or, when
// path names a checkpoint file, with a reader over it to resume one.
func openOrResume(path string, open func(io.Reader) error) error {
	if path == "" {
		return open(nil)
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	defer f.Close()
	if err := open(bufio.NewReader(f)); err != nil {
		return fmt.Errorf("resume %s: %w", path, err)
	}
	return nil
}

// writeBuffered writes the buffered run as one indented JSON array,
// each record in its engine's schema (cluster records lead with "bs").
// A run with no records writes [], not null: ReadTraceRecords detects
// a JSON array by its leading '['.
func writeBuffered(w io.Writer, b *dtmsvs.BufferedSink) error {
	recs := b.Records
	if recs == nil {
		recs = []dtmsvs.TraceRecord{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}
