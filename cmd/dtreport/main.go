// Command dtreport runs the evaluation suite on one scenario and
// writes a self-contained markdown report: the Fig. 3 reproduction
// (summary, panel (a) swiping CDFs and panel (b) demand series) and
// experiments E1–E4 and E7–E11. Sweeps use the library's default
// variant, depth, budget, churn and user-count lists.
//
// Usage:
//
//	dtreport -users 100 -intervals 24 -seed 42 > report.md
//
// The default scenario runs in about two seconds on two cores.
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
	"bufio"
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
	"dtmsvs/internal/video"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dtreport:", err)
		os.Exit(1)
	}
}

// run parses args and writes the selected report to -out, or to
// stdout by default. Every mode writes through one buffered writer,
// so a failed write surfaces at Flush even where a renderer does not
// check it.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dtreport", flag.ExitOnError)
	var (
		users     = fs.Int("users", 100, "number of users")
		bs        = fs.Int("bs", 4, "number of base stations")
		intervals = fs.Int("intervals", 24, "reservation intervals")
		seed      = fs.Int64("seed", 42, "random seed")
		par       = fs.Int("parallel", 0, "simulation worker goroutines (0 = all cores; results are identical for any value)")
		out       = fs.String("out", "", "output file (default stdout)")
		timings   = fs.String("timings", "", "render this metrics snapshot (from dtsim -metrics-out) instead of running the evaluation suite")
		tracePath = fs.String("trace", "", "render a markdown summary of this trace file (any format: json, ndjson, csv, bin) instead of running the evaluation suite")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := dtmsvs.DefaultConfig(*seed)
	cfg.NumUsers = *users
	cfg.NumBS = *bs
	cfg.NumIntervals = *intervals
	cfg.Parallelism = *par

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	dst := stdout
	var f *os.File
	if *out != "" && *out != "-" {
		var err error
		if f, err = os.Create(*out); err != nil {
			return err
		}
		dst = f
	}
	bw := bufio.NewWriter(dst)
	var err error
	switch {
	case *timings != "":
		err = reportTimings(bw, *timings)
	case *tracePath != "":
		err = reportTrace(bw, *tracePath)
	default:
		err = reportSuite(ctx, bw, cfg)
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "dtreport: interrupted; report truncated")
			err = nil
		}
	}
	err = errors.Join(err, bw.Flush())
	if f != nil {
		err = errors.Join(err, f.Close())
	}
	return err
}

// reportSuite runs every section of the evaluation report on cfg.
func reportSuite(ctx context.Context, w io.Writer, cfg dtmsvs.Config) error {
	fmt.Fprintf(w, "# dtmsvs evaluation report\n\nScenario: %d users, %d BSs, %d intervals, seed %d.\n\n",
		cfg.NumUsers, cfg.NumBS, cfg.NumIntervals, cfg.Seed)
	for _, section := range []func(context.Context, io.Writer, dtmsvs.Config) error{
		reportFig3,
		reportCompute,
		reportGrouping,
		reportUsers,
		reportPredictors,
		reportReservation,
		reportWaste,
		reportQoE,
		reportChurn,
		reportCluster,
	} {
		if err := section(ctx, w, cfg); err != nil {
			return err
		}
	}
	return nil
}

// writeSection writes a level-2 heading, the table and a blank line.
func writeSection(w io.Writer, heading string, t *cli.Table) error {
	fmt.Fprintf(w, "## %s\n\n", heading)
	if err := t.WriteMarkdown(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// reportFig3 renders the Fig. 3 summary and both panels from one run.
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
	if err := writeSection(w, "Fig. 3 reproduction", t); err != nil {
		return err
	}
	if err := reportFig3a(w, a); err != nil {
		return err
	}
	return reportFig3b(w, b)
}

// reportFig3a renders panel (a): the cumulative swiping probability
// per category at each watch-fraction bin, then E[watch].
func reportFig3a(w io.Writer, a *dtmsvs.Fig3aResult) error {
	columns := []string{"watch fraction"}
	for _, c := range video.AllCategories() {
		columns = append(columns, c.String())
	}
	t, err := cli.NewTable(columns...)
	if err != nil {
		return err
	}
	bins := len(a.CDF[0])
	for i := range bins {
		row := []any{fmt.Sprintf("%.3f", float64(i+1)/float64(bins))}
		for c := range a.CDF {
			row = append(row, fmt.Sprintf("%.5f", a.CDF[c][i]))
		}
		if err := t.AddRow(row...); err != nil {
			return err
		}
	}
	row := []any{"E[watch]"}
	for _, e := range a.ExpectedWatchFraction {
		row = append(row, fmt.Sprintf("%.3f", e))
	}
	if err := t.AddRow(row...); err != nil {
		return err
	}
	return writeSection(w, fmt.Sprintf("Fig. 3(a) — cumulative swiping probability, multicast group %d", a.GroupID), t)
}

// reportFig3b renders panel (b): predicted vs actual RBs per interval
// of the same group, with its accuracy and the run's.
func reportFig3b(w io.Writer, b *dtmsvs.Fig3bResult) error {
	t, err := cli.NewTable("interval", "predicted RBs", "actual RBs")
	if err != nil {
		return err
	}
	for i := range b.Predicted {
		if err := t.AddRow(i, fmt.Sprintf("%.4f", b.Predicted[i]), fmt.Sprintf("%.4f", b.Actual[i])); err != nil {
			return err
		}
	}
	if err := writeSection(w, fmt.Sprintf("Fig. 3(b) — radio resource demand, multicast group %d", b.GroupID), t); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "Group prediction accuracy %s; overall %s (paper: 95.04%%).\n\n",
		cli.Percent(b.Accuracy), cli.Percent(b.OverallAccuracy))
	return err
}

func reportCompute(ctx context.Context, w io.Writer, cfg dtmsvs.Config) error {
	res, err := dtmsvs.RunComputeDemand(ctx, cfg)
	if err != nil {
		return err
	}
	t, err := cli.NewTable("sample", "predicted cycles", "actual cycles")
	if err != nil {
		return err
	}
	for i := range res.Predicted {
		if err := t.AddRow(i, fmt.Sprintf("%.3e", res.Predicted[i]), fmt.Sprintf("%.3e", res.Actual[i])); err != nil {
			return err
		}
	}
	if err := writeSection(w, "E1 — computing resource demand prediction", t); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "Volume accuracy %s.\n\n", cli.Percent(res.VolumeAccuracy))
	return err
}

func reportGrouping(ctx context.Context, w io.Writer, cfg dtmsvs.Config) error {
	rows, err := dtmsvs.RunGroupingAblation(ctx, cfg, nil)
	if err != nil {
		return err
	}
	t, err := cli.NewTable("variant", "groups", "silhouette", "radio accuracy")
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := t.AddRow(r.Variant.Name, r.K, r.Silhouette, cli.Percent(r.RadioAccuracy)); err != nil {
			return err
		}
	}
	if err := writeSection(w, "E2 — grouping ablation", t); err != nil {
		return err
	}
	_, err = fmt.Fprint(w, "ddqn+perbs runs on the cluster engine, one cell per BS: its groups are the cells' sum, "+
		"its silhouette the users-weighted mean of the cells'.\n\n")
	return err
}

func reportUsers(ctx context.Context, w io.Writer, cfg dtmsvs.Config) error {
	rows, err := dtmsvs.RunAccuracyVsUsers(ctx, cfg, nil)
	if err != nil {
		return err
	}
	t, err := cli.NewTable("users", "groups", "radio accuracy", "compute accuracy")
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := t.AddRow(r.Users, r.K, cli.Percent(r.RadioAccuracy), percent(r.ComputeAccuracy, nil)); err != nil {
			return err
		}
	}
	return writeSection(w, "E3 — prediction accuracy vs user count", t)
}

func reportPredictors(ctx context.Context, w io.Writer, cfg dtmsvs.Config) error {
	rows, err := dtmsvs.RunPredictorBaselines(ctx, cfg)
	if err != nil {
		return err
	}
	t, err := cli.NewTable("predictor", "radio accuracy")
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := t.AddRow(r.Name, cli.Percent(r.Accuracy)); err != nil {
			return err
		}
	}
	return writeSection(w, "E4 — predictor baselines", t)
}

func reportReservation(ctx context.Context, w io.Writer, cfg dtmsvs.Config) error {
	rows, err := dtmsvs.RunReservation(ctx, cfg, 0.1)
	if err != nil {
		return err
	}
	t, err := cli.NewTable("policy", "waste", "deficit", "violation rate", "utilization")
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := t.AddRow(r.Policy, fmt.Sprintf("%.1f", r.Waste), fmt.Sprintf("%.1f", r.Deficit),
			cli.Percent(r.ViolationRate), cli.Percent(r.Utilization)); err != nil {
			return err
		}
	}
	return writeSection(w, "E7 — reservation policies (10% headroom)", t)
}

func reportWaste(ctx context.Context, w io.Writer, cfg dtmsvs.Config) error {
	rows, err := dtmsvs.RunWasteVsPrefetch(ctx, cfg, nil)
	if err != nil {
		return err
	}
	t, err := cli.NewTable("depth", "waste share", "pred/actual waste", "radio accuracy")
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := t.AddRow(r.PrefetchDepth, cli.Percent(r.WasteShare), r.AggregateRatio, cli.Percent(r.RadioAccuracy)); err != nil {
			return err
		}
	}
	return writeSection(w, "E8 — wasted traffic vs prefetch depth", t)
}

func reportQoE(ctx context.Context, w io.Writer, cfg dtmsvs.Config) error {
	rows, err := dtmsvs.RunQoEVsBudget(ctx, cfg, nil)
	if err != nil {
		return err
	}
	t, err := cli.NewTable("budget (RBs)", "mean QoE", "mean bitrate (kbps)", "under-grant rate")
	if err != nil {
		return err
	}
	for _, r := range rows {
		budget := "unlimited"
		if r.RBBudget > 0 {
			budget = fmt.Sprintf("%d", r.RBBudget)
		}
		if err := t.AddRow(budget, fmt.Sprintf("%.1f", r.MeanQoE), fmt.Sprintf("%.0f", r.MeanBitrateBps/1e3),
			cli.Percent(r.UnderGrantRate)); err != nil {
			return err
		}
	}
	return writeSection(w, "E9 — QoE vs shared radio budget", t)
}

func reportChurn(ctx context.Context, w io.Writer, cfg dtmsvs.Config) error {
	rows, err := dtmsvs.RunAccuracyVsChurn(ctx, cfg, nil)
	if err != nil {
		return err
	}
	t, err := cli.NewTable("churn/interval", "radio accuracy", "group stability", "churned users")
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := t.AddRow(cli.Percent(r.ChurnPerInterval), cli.Percent(r.RadioAccuracy), r.MeanStability, r.ChurnedUsers); err != nil {
			return err
		}
	}
	return writeSection(w, "E10 — accuracy vs user churn", t)
}

// reportCluster runs the scenario on the cluster engine, one cell per
// BS.
func reportCluster(ctx context.Context, w io.Writer, cfg dtmsvs.Config) error {
	s, err := dtmsvs.OpenCluster(dtmsvs.ClusterConfig{Sim: cfg})
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
	radioAcc, err := trace.RadioAccuracy()
	if err != nil {
		return err
	}
	t, err := cli.NewTable("bs", "users", "groups", "silhouette", "cache hit", "churned", "migrated")
	if err != nil {
		return err
	}
	for _, c := range trace.Cells {
		if err := t.AddRow(c.BS, c.Users, c.K, c.Silhouette, cli.Percent(c.CacheHitRate), c.ChurnedUsers, c.AttachedTwins); err != nil {
			return err
		}
	}
	if err := writeSection(w, "E11 — multi-BS cluster engine, one cell per BS", t); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "Handovers %d; aggregate cache hit %s; radio accuracy %s. "+
		"Both this run and Fig. 3 deliver with the same model, prefetch setting included, "+
		"so their radio accuracies differ in the grouping unit: per cell here, campus-wide there.\n",
		trace.Handovers, cli.Percent(trace.CacheHitRate), cli.Percent(radioAcc))
	return err
}
