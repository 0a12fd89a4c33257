// Command dtreport runs the full evaluation suite (Fig. 3 plus
// experiments E1–E4, E7–E10) on one scenario and writes a
// self-contained markdown report — the tool behind EXPERIMENTS.md.
//
// Usage:
//
//	dtreport -users 100 -intervals 24 -seed 42 > report.md
//
// The default scenario is paper-scale and takes a few minutes; use
// -users 60 -intervals 10 for a quick pass.
//
// With -timings FILE the evaluation suite is skipped entirely and the
// tool instead renders a metrics snapshot (written by `dtsim
// -metrics-out FILE`) as markdown: per-stage/per-cell wall-clock
// timings, edge cache effectiveness, and the run's counters.
//
// With -trace FILE the tool renders a markdown summary of a stored
// trace instead — per-interval demand and accuracy tables built from
// the records, scored by dtmsvs.AccuracyTracker so the totals equal
// the accuracy the run itself reported. The trace format (json,
// ndjson, csv or the binary columnar bin) is auto-detected from the
// file's first bytes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"dtmsvs"
	"dtmsvs/internal/cli"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dtreport:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		users     = flag.Int("users", 100, "number of users")
		bs        = flag.Int("bs", 4, "number of base stations")
		intervals = flag.Int("intervals", 24, "reservation intervals")
		seed      = flag.Int64("seed", 42, "random seed")
		par       = flag.Int("parallel", 0, "simulation worker goroutines (0 = all cores; results are identical for any value)")
		out       = flag.String("out", "", "output file (default stdout)")
		timings   = flag.String("timings", "", "render this metrics snapshot (from dtsim -metrics-out) instead of running the evaluation suite")
		tracePath = flag.String("trace", "", "render a markdown summary of this trace file (any format: json, ndjson, csv, bin) instead of running the evaluation suite")
	)
	flag.Parse()

	cfg := dtmsvs.DefaultConfig(*seed)
	cfg.NumUsers = *users
	cfg.NumBS = *bs
	cfg.NumIntervals = *intervals
	cfg.Parallelism = *par

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	w := io.Writer(os.Stdout)
	if *out != "" && *out != "-" {
		f, ferr := os.Create(*out)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		w = f
	}

	if *timings != "" {
		return reportTimings(w, *timings)
	}
	if *tracePath != "" {
		return reportTrace(w, *tracePath)
	}

	fmt.Fprintf(w, "# dtmsvs evaluation report\n\nScenario: %d users, %d BSs, %d intervals, seed %d.\n\n",
		*users, cfg.NumBS, *intervals, *seed)

	err := func() error {
		if err := reportFig3(ctx, w, cfg); err != nil {
			return err
		}
		if err := reportPredictors(ctx, w, cfg); err != nil {
			return err
		}
		if err := reportGrouping(ctx, w, cfg); err != nil {
			return err
		}
		if err := reportReservation(ctx, w, cfg); err != nil {
			return err
		}
		if err := reportWaste(ctx, w, cfg); err != nil {
			return err
		}
		if err := reportQoE(ctx, w, cfg); err != nil {
			return err
		}
		return reportChurn(ctx, w, cfg)
	}()
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "dtreport: interrupted; report truncated")
		return nil
	}
	return err
}

func reportFig3(ctx context.Context, w io.Writer, cfg dtmsvs.Config) error {
	s, err := dtmsvs.Open(cfg)
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
	a, err := dtmsvs.Fig3aFromTrace(trace)
	if err != nil {
		return err
	}
	b, err := dtmsvs.Fig3bFromTrace(trace)
	if err != nil {
		return err
	}
	computeAcc, err := trace.ComputeAccuracy()
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "## Fig. 3 reproduction\n\n")
	t, err := cli.NewTable("metric", "paper", "measured")
	if err != nil {
		return err
	}
	if err := t.AddRow("radio prediction accuracy", "95.04%", cli.Percent(b.OverallAccuracy)); err != nil {
		return err
	}
	if err := t.AddRow("computing accuracy (E1, volume)", "n/a", cli.Percent(computeAcc)); err != nil {
		return err
	}
	if err := t.AddRow("E[watch] News (group 1)", "highest", fmt.Sprintf("%.3f", a.ExpectedWatchFraction[dtmsvs.News.Index()])); err != nil {
		return err
	}
	if err := t.AddRow("E[watch] Game (group 1)", "lowest", fmt.Sprintf("%.3f", a.ExpectedWatchFraction[dtmsvs.Game.Index()])); err != nil {
		return err
	}
	if err := t.WriteMarkdown(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

func reportPredictors(ctx context.Context, w io.Writer, cfg dtmsvs.Config) error {
	rows, err := dtmsvs.RunPredictorBaselines(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## E4 — predictor baselines\n\n")
	t, err := cli.NewTable("predictor", "radio accuracy")
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := t.AddRow(r.Name, cli.Percent(r.Accuracy)); err != nil {
			return err
		}
	}
	if err := t.WriteMarkdown(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

func reportGrouping(ctx context.Context, w io.Writer, cfg dtmsvs.Config) error {
	rows, err := dtmsvs.RunGroupingAblation(ctx, cfg, []dtmsvs.GroupingVariant{
		{Name: "ddqn+cnn", UseCNN: true},
		{Name: "ddqn+raw", UseCNN: false},
		{Name: "fixed-k8", FixedK: 8, UseCNN: true},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## E2 — grouping ablation\n\n")
	t, err := cli.NewTable("variant", "groups", "silhouette", "radio accuracy")
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := t.AddRow(r.Variant.Name, r.K, r.Silhouette, cli.Percent(r.RadioAccuracy)); err != nil {
			return err
		}
	}
	if err := t.WriteMarkdown(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

func reportReservation(ctx context.Context, w io.Writer, cfg dtmsvs.Config) error {
	rows, err := dtmsvs.RunReservation(ctx, cfg, 0.1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## E7 — reservation policies (10%% headroom)\n\n")
	t, err := cli.NewTable("policy", "waste", "violation rate", "utilization")
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := t.AddRow(r.Policy, fmt.Sprintf("%.1f", r.Waste), cli.Percent(r.ViolationRate), cli.Percent(r.Utilization)); err != nil {
			return err
		}
	}
	if err := t.WriteMarkdown(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

func reportWaste(ctx context.Context, w io.Writer, cfg dtmsvs.Config) error {
	rows, err := dtmsvs.RunWasteVsPrefetch(ctx, cfg, []int{0, 2, 8})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## E8 — wasted traffic vs prefetch depth\n\n")
	t, err := cli.NewTable("depth", "waste share", "pred/actual waste")
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := t.AddRow(r.PrefetchDepth, cli.Percent(r.WasteShare), r.AggregateRatio); err != nil {
			return err
		}
	}
	if err := t.WriteMarkdown(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

func reportQoE(ctx context.Context, w io.Writer, cfg dtmsvs.Config) error {
	rows, err := dtmsvs.RunQoEVsBudget(ctx, cfg, []int{0, 8, 3})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## E9 — QoE vs shared radio budget\n\n")
	t, err := cli.NewTable("budget (RBs)", "mean QoE", "mean bitrate (kbps)")
	if err != nil {
		return err
	}
	for _, r := range rows {
		budget := "unlimited"
		if r.RBBudget > 0 {
			budget = fmt.Sprintf("%d", r.RBBudget)
		}
		if err := t.AddRow(budget, fmt.Sprintf("%.1f", r.MeanQoE), fmt.Sprintf("%.0f", r.MeanBitrateBps/1e3)); err != nil {
			return err
		}
	}
	if err := t.WriteMarkdown(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

func reportChurn(ctx context.Context, w io.Writer, cfg dtmsvs.Config) error {
	rows, err := dtmsvs.RunAccuracyVsChurn(ctx, cfg, []float64{0, 0.05})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## E10 — accuracy vs user churn\n\n")
	t, err := cli.NewTable("churn/interval", "radio accuracy", "group stability")
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := t.AddRow(cli.Percent(r.ChurnPerInterval), cli.Percent(r.RadioAccuracy), r.MeanStability); err != nil {
			return err
		}
	}
	return t.WriteMarkdown(w)
}
