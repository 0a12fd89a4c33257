// Command dteval runs the extended evaluation experiments (DESIGN.md
// §4, E1–E4): computing-demand prediction, grouping ablation,
// accuracy vs user count, and predictor baselines.
//
// Usage:
//
//	dteval -exp compute
//	dteval -exp grouping
//	dteval -exp users -counts 50,100,200
//	dteval -exp predictors
//	dteval -exp cluster -out trace.ndjson
//
// Every experiment runs through the context-aware session API:
// Ctrl-C cancels at the next interval boundary. For the single-trace
// experiments (compute, cluster, reserve, predictors) -out streams
// the underlying trace as NDJSON (or CSV/binary-columnar with
// -format csv/bin), flushed per interval. "-out -" streams the trace
// to stdout and moves the experiment tables to stderr, so stdout
// stays a clean trace stream. To summarize a stored trace, use
// dtreport -trace.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"dtmsvs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dteval:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp       = flag.String("exp", "compute", `experiment: "compute", "grouping", "users", "predictors", "reserve", "waste", "qoe", "churn" or "cluster"`)
		seed      = flag.Int64("seed", 42, "random seed")
		users     = flag.Int("users", 100, "base number of users")
		bs        = flag.Int("bs", 4, "number of base stations")
		intervals = flag.Int("intervals", 24, "reservation intervals")
		counts    = flag.String("counts", "50,100,200", "comma-separated user counts for -exp users")
		par       = flag.Int("parallel", 0, "worker goroutines for simulation and grouping fan-out (0 = all cores; results are identical for any value)")
		shards    = flag.Int("shards", 0, "shard count for -exp cluster (0 = one per BS)")
		out       = flag.String("out", "", "stream the experiment's trace to this file (single-trace experiments only)")
		format    = flag.String("format", "ndjson", `-out stream format: "ndjson", "csv" or "bin" (binary columnar)`)
	)
	flag.Parse()

	cfg := dtmsvs.DefaultConfig(*seed)
	cfg.NumUsers = *users
	cfg.NumBS = *bs
	cfg.NumIntervals = *intervals
	cfg.Parallelism = *par

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Only the single-trace experiments can stream their trace; the
	// multi-run sweeps have no single trace to write, so -out there is
	// an error rather than a silently empty file.
	streamable := map[string]bool{"compute": true, "predictors": true, "reserve": true, "cluster": true}
	var opts []dtmsvs.SessionOption
	// Experiment tables print to stdout; with "-out -" the trace stream
	// takes stdout instead and the tables move to stderr so the two
	// never interleave.
	w := io.Writer(os.Stdout)
	if *out != "" {
		if !streamable[*exp] {
			return fmt.Errorf("-out is only supported for single-trace experiments (compute, predictors, reserve, cluster), not %q", *exp)
		}
		sink := io.Writer(os.Stdout)
		if *out == "-" {
			w = os.Stderr
		} else {
			f, ferr := os.Create(*out)
			if ferr != nil {
				return ferr
			}
			defer f.Close()
			sink = f
		}
		switch *format {
		case "ndjson":
			opts = append(opts, dtmsvs.WithSink(dtmsvs.NewNDJSONSink(sink)))
		case "csv":
			opts = append(opts, dtmsvs.WithSink(dtmsvs.NewCSVSink(sink)))
		case "bin":
			bsink, serr := dtmsvs.NewBinarySink(sink)
			if serr != nil {
				return serr
			}
			defer bsink.Close()
			opts = append(opts, dtmsvs.WithSink(bsink))
		default:
			return fmt.Errorf("unknown -format %q", *format)
		}
	}

	err := func() error {
		switch *exp {
		case "compute":
			return runCompute(ctx, w, cfg, opts)
		case "grouping":
			return runGrouping(ctx, w, cfg)
		case "users":
			return runUsers(ctx, w, cfg, *counts)
		case "predictors":
			return runPredictors(ctx, w, cfg, opts)
		case "reserve":
			return runReserve(ctx, w, cfg, opts)
		case "waste":
			return runWaste(ctx, w, cfg)
		case "qoe":
			return runQoE(ctx, w, cfg)
		case "churn":
			return runChurn(ctx, w, cfg)
		case "cluster":
			return runCluster(ctx, w, cfg, *shards, opts)
		default:
			return fmt.Errorf("unknown experiment %q", *exp)
		}
	}()
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "dteval: interrupted; partial output flushed")
		return nil
	}
	return err
}

func runCluster(ctx context.Context, w io.Writer, cfg dtmsvs.Config, shards int, opts []dtmsvs.SessionOption) error {
	// Accuracy folds online so -out streaming (which owns the records)
	// does not break the summary.
	var acc dtmsvs.AccuracyTracker
	opts = append(opts, dtmsvs.WithObserver(acc.Observe))
	s, err := dtmsvs.OpenCluster(dtmsvs.ClusterConfig{Sim: cfg, Shards: shards}, opts...)
	if err != nil {
		return err
	}
	defer s.Close()
	for !s.Done() {
		if _, err := s.Step(ctx); err != nil {
			return err
		}
	}
	trace := s.Trace()
	radioAcc, err := acc.RadioAccuracy()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E11 — sharded multi-BS cluster engine")
	fmt.Fprintf(w, "%-6s%8s%6s%14s%12s%10s%10s\n", "bs", "users", "K", "silhouette", "cache-hit", "churned", "migrated")
	for _, c := range trace.Cells {
		fmt.Fprintf(w, "%-6d%8d%6d%14.3f%11.2f%%%10d%10d\n",
			c.BS, c.Users, c.K, c.Silhouette, c.CacheHitRate*100, c.ChurnedUsers, c.AttachedTwins)
	}
	fmt.Fprintf(w, "\nhandovers: %d   aggregate cache-hit: %.2f%%   radio-accuracy: %.2f%%\n",
		trace.Handovers, trace.CacheHitRate*100, radioAcc*100)
	return nil
}

func runCompute(ctx context.Context, w io.Writer, cfg dtmsvs.Config, opts []dtmsvs.SessionOption) error {
	res, err := dtmsvs.RunComputeDemand(ctx, cfg, opts...)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E1 — computing resource demand prediction")
	fmt.Fprintf(w, "%-10s%16s%16s\n", "sample", "predicted", "actual")
	for i := range res.Predicted {
		fmt.Fprintf(w, "%-10d%16.3e%16.3e\n", i, res.Predicted[i], res.Actual[i])
	}
	fmt.Fprintf(w, "\nvolume accuracy: %.2f%%\n", res.VolumeAccuracy*100)
	return nil
}

func runGrouping(ctx context.Context, w io.Writer, cfg dtmsvs.Config) error {
	rows, err := dtmsvs.RunGroupingAblation(ctx, cfg, nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E2 — grouping ablation (DDQN-K vs fixed-K vs raw features)")
	fmt.Fprintf(w, "%-12s%6s%14s%16s\n", "variant", "K", "silhouette", "radio-accuracy")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s%6d%14.3f%15.2f%%\n", r.Variant.Name, r.K, r.Silhouette, r.RadioAccuracy*100)
	}
	return nil
}

func runUsers(ctx context.Context, w io.Writer, cfg dtmsvs.Config, countsCSV string) error {
	var counts []int
	for _, f := range strings.Split(countsCSV, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return fmt.Errorf("parse -counts: %w", err)
		}
		counts = append(counts, n)
	}
	rows, err := dtmsvs.RunAccuracyVsUsers(ctx, cfg, counts)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E3 — prediction accuracy vs user count")
	fmt.Fprintf(w, "%-8s%6s%16s%18s\n", "users", "K", "radio-accuracy", "compute-accuracy")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d%6d%15.2f%%%17.2f%%\n", r.Users, r.K, r.RadioAccuracy*100, r.ComputeAccuracy*100)
	}
	return nil
}

func runReserve(ctx context.Context, w io.Writer, cfg dtmsvs.Config, opts []dtmsvs.SessionOption) error {
	rows, err := dtmsvs.RunReservation(ctx, cfg, 0.1, opts...)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E7 — radio resource reservation (10% headroom)")
	fmt.Fprintf(w, "%-22s%12s%12s%16s%14s\n", "policy", "waste", "deficit", "violation-rate", "utilization")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s%12.1f%12.1f%15.2f%%%13.2f%%\n",
			r.Policy, r.Waste, r.Deficit, r.ViolationRate*100, r.Utilization*100)
	}
	return nil
}

func runWaste(ctx context.Context, w io.Writer, cfg dtmsvs.Config) error {
	rows, err := dtmsvs.RunWasteVsPrefetch(ctx, cfg, nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E8 — wasted multicast traffic vs prefetch depth")
	fmt.Fprintf(w, "%-8s%14s%18s%16s\n", "depth", "waste-share", "pred/actual-waste", "radio-accuracy")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d%13.2f%%%18.3f%15.2f%%\n",
			r.PrefetchDepth, r.WasteShare*100, r.AggregateRatio, r.RadioAccuracy*100)
	}
	return nil
}

func runQoE(ctx context.Context, w io.Writer, cfg dtmsvs.Config) error {
	rows, err := dtmsvs.RunQoEVsBudget(ctx, cfg, nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E9 — QoE vs shared radio budget")
	fmt.Fprintf(w, "%-10s%12s%16s%18s\n", "budget", "mean-qoe", "mean-bitrate", "under-grant-rate")
	for _, r := range rows {
		budget := "unlimited"
		if r.RBBudget > 0 {
			budget = strconv.Itoa(r.RBBudget)
		}
		fmt.Fprintf(w, "%-10s%12.1f%13.0f kbps%17.2f%%\n",
			budget, r.MeanQoE, r.MeanBitrateBps/1e3, r.UnderGrantRate*100)
	}
	return nil
}

func runChurn(ctx context.Context, w io.Writer, cfg dtmsvs.Config) error {
	rows, err := dtmsvs.RunAccuracyVsChurn(ctx, cfg, nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E10 — accuracy and grouping stability vs user churn")
	fmt.Fprintf(w, "%-10s%16s%16s%12s\n", "churn", "radio-accuracy", "mean-stability", "churned")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10.2f%15.2f%%%16.3f%12d\n",
			r.ChurnPerInterval, r.RadioAccuracy*100, r.MeanStability, r.ChurnedUsers)
	}
	return nil
}

func runPredictors(ctx context.Context, w io.Writer, cfg dtmsvs.Config, opts []dtmsvs.SessionOption) error {
	rows, err := dtmsvs.RunPredictorBaselines(ctx, cfg, opts...)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E4 — predictor baselines on radio demand")
	fmt.Fprintf(w, "%-20s%16s\n", "predictor", "accuracy")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s%15.2f%%\n", r.Name, r.Accuracy*100)
	}
	return nil
}
